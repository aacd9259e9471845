//! CGPH v3: a sectioned, checksummed, mmap-ready on-disk container.
//!
//! The container stores the **built CSR arrays** (forward and reverse
//! offsets/targets/weights) as fixed-width little-endian sections, so a
//! warm load is one `mmap` plus linear validation: zero parsing, zero
//! rebuilding, and the arrays are used in place ([`crate::storage`]). The
//! keyword → nodes map (the paper's `invertedN`) and an optional opaque
//! *extra* payload ride in the same file, which is what lets the serving
//! daemon restart without touching the relational layer.
//!
//! # Layout
//!
//! ```text
//! header (40 B):  magic "CGPH" | version=3 u32 | n u64 | m u64
//!                 | section_count u32 | reserved u32 | toc checksum u64
//! TOC:            section_count × 32 B: id u32 | reserved u32
//!                 | offset u64 | len u64 | section checksum u64
//! sections:       payload bytes, each starting at an 8-aligned offset
//!                 (zero padding between sections, none after the last)
//! ```
//!
//! Section ids 1–6 are the six CSR arrays (required), 7 the keyword map,
//! 8 the extra payload (both optional). TOC entries must be strictly
//! ordered and non-overlapping; the file must end exactly at the last
//! section — trailing bytes are rejected.
//!
//! # Validation
//!
//! A load verifies, in order: header magic/version, TOC checksum, TOC
//! geometry, every section's 64-bit word-FNV checksum, CSR structure (offsets
//! monotone from 0 to `m`, targets `< n`, weights `< Weight::INFINITY`, runs
//! sorted — the linear subset of [`Graph::validate`]; the `O(m log m)`
//! transpose comparison is left to `verify`-feature tests), and the
//! keyword map's contract (lowercase keys, strictly increasing in-range
//! node ids). Header counts are claims, never trusted for allocation:
//! every variable-length read is bounded by the actual section bytes
//! first, and speculative preallocation is capped by [`PREALLOC_CAP`].
//!
//! # Versions
//!
//! v3 is the only format read or written: weight sections hold `u64`
//! counts of `10⁻⁹` units ([`Weight::units`]). v2 (the same layout with
//! `f64` weights) and the v1 edge-list format (same magic, `version = 1`)
//! are rejected by their version field; caches regenerate over any file
//! that fails to load.

use crate::csr::{Csr, Graph, NodeId};
use crate::storage::{MapRegion, Storage};
use crate::verify::validate_csr;
use crate::weight::{try_index_to_u32, try_u64_to_usize, Weight};
use crate::Direction;
use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Arc;

const MAGIC: [u8; 4] = *b"CGPH";
/// Container format version.
pub const VERSION: u32 = 3;
const HEADER_BYTES: usize = 40;
const TOC_ENTRY_BYTES: usize = 32;
/// Hard cap on the section count a header may claim.
const MAX_SECTIONS: u32 = 64;

/// Section ids. 1–6 (the CSR arrays) are required; 7–8 optional.
const SEC_FWD_OFFSETS: u32 = 1;
const SEC_FWD_TARGETS: u32 = 2;
const SEC_FWD_WEIGHTS: u32 = 3;
const SEC_REV_OFFSETS: u32 = 4;
const SEC_REV_TARGETS: u32 = 5;
const SEC_REV_WEIGHTS: u32 = 6;
const SEC_KEYWORDS: u32 = 7;
const SEC_EXTRA: u32 = 8;

/// Upper bound on speculative preallocation from header counts. Larger
/// (legitimate) inputs still load fine — collections just grow as records
/// actually arrive instead of trusting the header up front — so a hostile
/// count can never reserve more than ~16 MiB before real bytes back it.
const PREALLOC_CAP: usize = 1 << 20;

/// The container checksum: FNV-1a-style mixing over 8-byte little-endian
/// words in four independent lanes (folded together at the end), with
/// trailing words and bytes folded serially. The byte-serial FNV loop
/// runs at the latency of one multiply per byte and dominated the cost
/// of a v2 load; word folding removes the per-byte work and the four
/// lanes break the multiply dependency chain, leaving verification
/// memory-bound. Tiny, dependency-free, and plenty for corruption
/// detection (integrity, not authentication). Every step is a bijection
/// of the running state, so a change confined to one word always changes
/// the sum.
fn checksum64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    let word = |c: &[u8]| {
        let mut w = [0u8; 8];
        w.copy_from_slice(c);
        u64::from_le_bytes(w)
    };
    let mut lanes = [
        SEED,
        SEED.rotate_left(16),
        SEED.rotate_left(32),
        SEED.rotate_left(48),
    ];
    let (blocks, rest) = bytes.split_at(bytes.len() & !31);
    for b in blocks.chunks_exact(32) {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = (*lane ^ word(&b[i * 8..i * 8 + 8])).wrapping_mul(PRIME);
        }
    }
    let mut h = SEED;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(PRIME);
    }
    let (words, tail) = rest.split_at(rest.len() & !7);
    for c in words.chunks_exact(8) {
        h = (h ^ word(c)).wrapping_mul(PRIME);
    }
    for &b in tail {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Everything a warm start needs, as loaded from one container file: the
/// graph (zero-copy when mapped), the keyword → sorted-node map, and the
/// opaque extra payload.
#[derive(Debug)]
pub struct Container {
    /// The database graph, CSR arrays viewing the mapped region.
    pub graph: Graph,
    /// Keyword (lowercase) → strictly increasing node ids.
    pub keyword_nodes: HashMap<String, Vec<NodeId>>,
    /// Opaque payload stored beside the graph (section 8), if any.
    pub extra: Option<Vec<u8>>,
}

impl Container {
    /// The nodes for a keyword (empty if unknown). Case-insensitive:
    /// stored keys are lowercase by format contract.
    pub fn keyword_nodes(&self, keyword: &str) -> &[NodeId] {
        self.keyword_nodes
            .get(&keyword.to_lowercase())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

/// Lowercases, sorts, and dedups the keyword map, rejecting out-of-range
/// nodes and keys that collide after lowercasing.
fn normalize_keywords<'a>(
    n: usize,
    keywords: impl IntoIterator<Item = (&'a str, &'a [NodeId])>,
) -> io::Result<Vec<(String, Vec<NodeId>)>> {
    let mut entries: Vec<(String, Vec<NodeId>)> = Vec::new();
    for (kw, nodes) in keywords {
        let mut ns = nodes.to_vec();
        ns.sort_unstable();
        ns.dedup();
        if ns.iter().any(|v| v.index() >= n) {
            return Err(bad(format!("keyword `{kw}` has a node outside 0..{n}")));
        }
        entries.push((kw.to_lowercase(), ns));
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    if let Some(pair) = entries.windows(2).find(|p| p[0].0 == p[1].0) {
        return Err(bad(format!(
            "keyword `{}` duplicated after lowercasing",
            pair[0].0
        )));
    }
    Ok(entries)
}

fn encode_keywords(entries: &[(String, Vec<NodeId>)]) -> io::Result<Vec<u8>> {
    let mut out = Vec::new();
    let count = try_index_to_u32(entries.len()).ok_or_else(|| bad("too many keywords"))?;
    out.extend_from_slice(&count.to_le_bytes());
    for (kw, nodes) in entries {
        let klen = try_index_to_u32(kw.len()).ok_or_else(|| bad("keyword too long"))?;
        out.extend_from_slice(&klen.to_le_bytes());
        out.extend_from_slice(kw.as_bytes());
        let nlen = try_index_to_u32(nodes.len()).ok_or_else(|| bad("node list too long"))?;
        out.extend_from_slice(&nlen.to_le_bytes());
        for v in nodes {
            out.extend_from_slice(&v.0.to_le_bytes());
        }
    }
    Ok(out)
}

fn u32_section(vals: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 4);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn id_section(vals: &[NodeId]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 4);
    for v in vals {
        out.extend_from_slice(&v.0.to_le_bytes());
    }
    out
}

fn weight_section(vals: &[Weight]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 8);
    for v in vals {
        out.extend_from_slice(&v.units().to_le_bytes());
    }
    out
}

/// Writes `graph` (and optionally a keyword map and an extra payload) to
/// `w` in the CGPH v3 container format.
fn write_container<'a, W: Write>(
    w: &mut W,
    graph: &Graph,
    keywords: impl IntoIterator<Item = (&'a str, &'a [NodeId])>,
    extra: Option<&[u8]>,
) -> io::Result<()> {
    let n = graph.node_count();
    let m = graph.edge_count();
    // CSR offsets are u32, so any in-memory graph already satisfies this;
    // the check keeps the invariant explicit at the format boundary.
    if try_index_to_u32(m).is_none() {
        return Err(bad("edge count exceeds the u32 offset space"));
    }
    let entries = normalize_keywords(n, keywords)?;

    let mut sections: Vec<(u32, Vec<u8>)> = vec![
        (SEC_FWD_OFFSETS, u32_section(&graph.fwd.offsets)),
        (SEC_FWD_TARGETS, id_section(&graph.fwd.targets)),
        (SEC_FWD_WEIGHTS, weight_section(&graph.fwd.weights)),
        (SEC_REV_OFFSETS, u32_section(&graph.rev.offsets)),
        (SEC_REV_TARGETS, id_section(&graph.rev.targets)),
        (SEC_REV_WEIGHTS, weight_section(&graph.rev.weights)),
    ];
    if !entries.is_empty() {
        sections.push((SEC_KEYWORDS, encode_keywords(&entries)?));
    }
    if let Some(x) = extra {
        sections.push((SEC_EXTRA, x.to_vec()));
    }

    // Assign 8-aligned file offsets (no padding after the final section).
    let body_start = HEADER_BYTES + sections.len() * TOC_ENTRY_BYTES;
    let mut offsets: Vec<u64> = Vec::with_capacity(sections.len());
    let mut cursor = body_start as u64;
    for (i, (_, payload)) in sections.iter().enumerate() {
        offsets.push(cursor);
        cursor += payload.len() as u64;
        if i + 1 != sections.len() {
            cursor = (cursor + 7) & !7;
        }
    }

    let mut toc = Vec::with_capacity(sections.len() * TOC_ENTRY_BYTES);
    for ((id, payload), off) in sections.iter().zip(&offsets) {
        toc.extend_from_slice(&id.to_le_bytes());
        toc.extend_from_slice(&0u32.to_le_bytes());
        toc.extend_from_slice(&off.to_le_bytes());
        toc.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        toc.extend_from_slice(&checksum64(payload).to_le_bytes());
    }

    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(n as u64).to_le_bytes())?;
    w.write_all(&(m as u64).to_le_bytes())?;
    let count = try_index_to_u32(sections.len()).ok_or_else(|| bad("too many sections"))?;
    w.write_all(&count.to_le_bytes())?;
    w.write_all(&0u32.to_le_bytes())?;
    w.write_all(&checksum64(&toc).to_le_bytes())?;
    w.write_all(&toc)?;
    let mut pos = body_start as u64;
    for ((_, payload), off) in sections.iter().zip(&offsets) {
        // Zero padding up to this section's aligned offset.
        for _ in pos..*off {
            w.write_all(&[0u8])?;
        }
        w.write_all(payload)?;
        pos = off + payload.len() as u64;
    }
    Ok(())
}

/// Saves a container to `path` atomically (temp file + fsync + rename; a
/// crash mid-write leaves any previous container intact).
pub fn save_container<'a>(
    path: impl AsRef<Path>,
    graph: &Graph,
    keywords: impl IntoIterator<Item = (&'a str, &'a [NodeId])>,
    extra: Option<&[u8]>,
) -> io::Result<()> {
    let entries: Vec<(&'a str, &'a [NodeId])> = keywords.into_iter().collect();
    atomic_write(path, |w| {
        write_container(w, graph, entries.iter().copied(), extra)
    })
}

/// Writes a file atomically: the payload goes to a unique temp file in the
/// same directory, is flushed and `fsync`ed, and only then renamed over
/// `path`. A crash (or guard trip) mid-write therefore leaves any previous
/// file at `path` untouched — never a half-written hybrid — and the temp
/// file is removed on error.
fn atomic_write(
    path: impl AsRef<Path>,
    write_fn: impl FnOnce(&mut BufWriter<std::fs::File>) -> io::Result<()>,
) -> io::Result<()> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let path = path.as_ref();
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = std::path::PathBuf::from(tmp_name);
    let result = (|| {
        let mut w = BufWriter::new(std::fs::File::create(&tmp)?);
        write_fn(&mut w)?;
        w.flush()?;
        w.get_ref().sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

/// One parsed TOC entry.
struct Section {
    id: u32,
    offset: usize,
    len: usize,
    checksum: u64,
}

fn read_u32(bytes: &[u8], pos: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&bytes[pos..pos + 4]);
    u32::from_le_bytes(b)
}

fn read_u64(bytes: &[u8], pos: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[pos..pos + 8]);
    u64::from_le_bytes(b)
}

/// Parses and validates the header + TOC, returning sections in file
/// order. Geometry is checked strictly: ids strictly increasing, offsets
/// 8-aligned and non-overlapping, the first section right after the TOC,
/// and the file ending exactly at the last section's end.
fn parse_toc(bytes: &[u8]) -> io::Result<(u64, u64, Vec<Section>)> {
    // Magic and version come first so a file of another format (or a v1
    // edge list, whose whole header is shorter than ours) is named for
    // what it is before any count is read.
    if bytes.len() < 8 {
        return Err(bad("container shorter than its header"));
    }
    if bytes[0..4] != MAGIC {
        return Err(bad(format!(
            "not a CGPH file (magic {:?})",
            String::from_utf8_lossy(&bytes[0..4])
        )));
    }
    let version = read_u32(bytes, 4);
    if version != VERSION {
        return Err(bad(format!(
            "unsupported CGPH version {version} (container reader supports v3)"
        )));
    }
    if bytes.len() < HEADER_BYTES {
        return Err(bad("container shorter than its header"));
    }
    let n64 = read_u64(bytes, 8);
    let m64 = read_u64(bytes, 16);
    let count = read_u32(bytes, 24);
    if count == 0 || count > MAX_SECTIONS {
        return Err(bad("implausible section count"));
    }
    let toc_len = count as usize * TOC_ENTRY_BYTES;
    let body_start = HEADER_BYTES + toc_len;
    if bytes.len() < body_start {
        return Err(bad("container truncated inside the TOC"));
    }
    let toc = &bytes[HEADER_BYTES..body_start];
    if read_u64(bytes, 32) != checksum64(toc) {
        return Err(bad("TOC checksum mismatch"));
    }
    let mut sections = Vec::with_capacity(count as usize);
    let mut prev_id = 0u32;
    let mut prev_end = body_start;
    for i in 0..count as usize {
        let e = i * TOC_ENTRY_BYTES;
        let id = read_u32(toc, e);
        let offset64 = read_u64(toc, e + 8);
        let len64 = read_u64(toc, e + 16);
        let checksum = read_u64(toc, e + 24);
        if id <= prev_id {
            return Err(bad("section ids not strictly increasing"));
        }
        let offset =
            try_u64_to_usize(offset64).ok_or_else(|| bad("section offset exceeds host width"))?;
        let len =
            try_u64_to_usize(len64).ok_or_else(|| bad("section length exceeds host width"))?;
        if !offset.is_multiple_of(8) {
            return Err(bad("section offset not 8-aligned"));
        }
        let expected = (prev_end + 7) & !7;
        if offset != expected {
            return Err(bad("section offset disagrees with the preceding section"));
        }
        let end = offset
            .checked_add(len)
            .ok_or_else(|| bad("section range overflows"))?;
        if end > bytes.len() {
            return Err(bad("section extends past end of file"));
        }
        prev_id = id;
        prev_end = end;
        sections.push(Section {
            id,
            offset,
            len,
            checksum,
        });
    }
    if prev_end != bytes.len() {
        return Err(bad("trailing bytes after the last section"));
    }
    Ok((n64, m64, sections))
}

/// Decodes the keyword section: `count`, then per entry a length-prefixed
/// lowercase UTF-8 keyword and a strictly increasing list of in-range
/// node ids. Every length is bounded by the actual remaining bytes before
/// any allocation, and the section must be consumed exactly.
fn decode_keywords(sec: &[u8], n: usize) -> io::Result<HashMap<String, Vec<NodeId>>> {
    let need = |pos: usize, want: usize| -> io::Result<()> {
        if sec.len() - pos < want {
            Err(bad("keyword section truncated"))
        } else {
            Ok(())
        }
    };
    need(0, 4)?;
    let count = read_u32(sec, 0) as usize;
    let mut pos = 4;
    let mut map = HashMap::with_capacity(count.min(PREALLOC_CAP));
    for _ in 0..count {
        need(pos, 4)?;
        let klen = read_u32(sec, pos) as usize;
        pos += 4;
        need(pos, klen)?;
        let kw = std::str::from_utf8(&sec[pos..pos + klen])
            .map_err(|_| bad("keyword is not UTF-8"))?
            .to_string();
        pos += klen;
        if kw != kw.to_lowercase() {
            return Err(bad(format!(
                "keyword `{kw}` is not lowercase (unreachable through the lookup API)"
            )));
        }
        need(pos, 4)?;
        let nlen = read_u32(sec, pos) as usize;
        pos += 4;
        let Some(nbytes) = nlen.checked_mul(4) else {
            return Err(bad("keyword node count overflows"));
        };
        need(pos, nbytes)?;
        let mut nodes = Vec::with_capacity(nlen);
        for i in 0..nlen {
            let v = NodeId(read_u32(sec, pos + i * 4));
            if v.index() >= n {
                return Err(bad(format!("keyword node {v} outside 0..{n}")));
            }
            if let Some(&prev) = nodes.last() {
                if prev >= v {
                    return Err(bad(format!(
                        "keyword `{kw}` node list not strictly increasing at {v}"
                    )));
                }
            }
            nodes.push(v);
        }
        pos += nbytes;
        if map.insert(kw, nodes).is_some() {
            return Err(bad("duplicate keyword entry"));
        }
    }
    if pos != sec.len() {
        return Err(bad("trailing bytes in the keyword section"));
    }
    Ok(map)
}

/// Cuts the three `Storage` views of one CSR half out of the region and
/// runs the linear structural checks on them.
fn load_half(
    region: &Arc<MapRegion>,
    dir: Direction,
    offsets: &Section,
    targets: &Section,
    weights: &Section,
    n: usize,
    m: usize,
) -> io::Result<Csr> {
    let expect = |sec: &Section, want_len: usize, what: &str| -> io::Result<()> {
        if sec.len != want_len {
            Err(bad(format!(
                "{what} section holds {} bytes, header implies {want_len}",
                sec.len
            )))
        } else {
            Ok(())
        }
    };
    expect(offsets, (n + 1) * 4, "offsets")?;
    expect(targets, m * 4, "targets")?;
    expect(weights, m * 8, "weights")?;
    let csr = Csr::new(
        Storage::mapped(Arc::clone(region), offsets.offset, n + 1)?,
        Storage::mapped(Arc::clone(region), targets.offset, m)?,
        Storage::mapped(Arc::clone(region), weights.offset, m)?,
    );
    validate_csr(&csr, dir, n, m).map_err(|e| bad(e.to_string()))?;
    Ok(csr)
}

/// Loads a v3 container by `mmap` (zero-copy on unix; aligned heap read
/// elsewhere), validating checksums and structure. See the module docs
/// for the full validation list.
pub fn load_container(path: impl AsRef<Path>) -> io::Result<Container> {
    let region = Arc::new(MapRegion::map_file(path.as_ref())?);
    let (n64, m64, sections) = parse_toc(region.bytes())?;
    if n64 > u64::from(u32::MAX) + 1 {
        return Err(bad("node count exceeds the u32 node-id space"));
    }
    if m64 > u64::from(u32::MAX) {
        return Err(bad("edge count exceeds the u32 offset space"));
    }
    let n = try_u64_to_usize(n64).ok_or_else(|| bad("node count exceeds host address width"))?;
    let m = try_u64_to_usize(m64).ok_or_else(|| bad("edge count exceeds host address width"))?;
    for s in &sections {
        let payload = &region.bytes()[s.offset..s.offset + s.len];
        if checksum64(payload) != s.checksum {
            return Err(bad(format!("section {} checksum mismatch", s.id)));
        }
    }
    let find = |id: u32| sections.iter().find(|s| s.id == id);
    let require = |id: u32, what: &str| {
        find(id).ok_or_else(|| bad(format!("required section {id} ({what}) missing")))
    };
    let fwd = load_half(
        &region,
        Direction::Forward,
        require(SEC_FWD_OFFSETS, "fwd offsets")?,
        require(SEC_FWD_TARGETS, "fwd targets")?,
        require(SEC_FWD_WEIGHTS, "fwd weights")?,
        n,
        m,
    )?;
    let rev = load_half(
        &region,
        Direction::Reverse,
        require(SEC_REV_OFFSETS, "rev offsets")?,
        require(SEC_REV_TARGETS, "rev targets")?,
        require(SEC_REV_WEIGHTS, "rev weights")?,
        n,
        m,
    )?;
    let keyword_nodes = match find(SEC_KEYWORDS) {
        Some(s) => decode_keywords(&region.bytes()[s.offset..s.offset + s.len], n)?,
        None => HashMap::new(),
    };
    let extra = find(SEC_EXTRA).map(|s| region.bytes()[s.offset..s.offset + s.len].to_vec());
    Ok(Container {
        graph: Graph { n, m, fwd, rev },
        keyword_nodes,
        extra,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::graph_from_edges;
    use std::path::PathBuf;

    fn unique_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "comm_container_{tag}_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> Graph {
        graph_from_edges(
            5,
            &[
                (0, 1, 1.5),
                (1, 2, 0.0),
                (4, 0, 2.25),
                (2, 2, 3.0),
                (0, 1, 7.0),
            ],
        )
    }

    const KW_ALPHA: [NodeId; 2] = [NodeId(0), NodeId(2)];
    const KW_BETA: [NodeId; 1] = [NodeId(3)];

    fn kw() -> Vec<(&'static str, &'static [NodeId])> {
        vec![("alpha", KW_ALPHA.as_slice()), ("Beta", KW_BETA.as_slice())]
    }

    fn save_sample(dir: &Path) -> PathBuf {
        let path = dir.join("g.cgph2");
        save_container(&path, &sample(), kw(), Some(b"extra-payload")).unwrap();
        path
    }

    #[test]
    fn container_roundtrip_preserves_everything() {
        let dir = unique_dir("rt");
        let path = save_sample(&dir);
        let c = load_container(&path).unwrap();
        let g = sample();
        assert_eq!(c.graph.node_count(), g.node_count());
        assert_eq!(c.graph.edge_count(), g.edge_count());
        assert_eq!(
            g.edges().collect::<Vec<_>>(),
            c.graph.edges().collect::<Vec<_>>()
        );
        for u in g.nodes() {
            assert_eq!(
                g.in_neighbors(u).collect::<Vec<_>>(),
                c.graph.in_neighbors(u).collect::<Vec<_>>()
            );
        }
        // Keys were lowercased on write, lookups are case-insensitive.
        assert_eq!(c.keyword_nodes("alpha"), &[NodeId(0), NodeId(2)]);
        assert_eq!(c.keyword_nodes("BETA"), &[NodeId(3)]);
        assert_eq!(c.keyword_nodes("missing"), &[] as &[NodeId]);
        assert_eq!(c.extra.as_deref(), Some(b"extra-payload".as_slice()));
        // Full deep validation agrees (transpose check included).
        c.graph.validate().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(all(unix, not(miri)))]
    #[test]
    fn load_is_zero_copy_on_unix() {
        let dir = unique_dir("zc");
        let path = save_sample(&dir);
        let c = load_container(&path).unwrap();
        assert!(c.graph.is_mapped());
        // Clones share the mapping (Arc), they don't copy the arrays.
        let clone = c.graph.clone();
        assert!(clone.is_mapped());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_graph_and_no_optional_sections() {
        let dir = unique_dir("empty");
        let path = dir.join("empty.cgph2");
        let g = graph_from_edges(0, &[]);
        save_container(&path, &g, std::iter::empty::<(&str, &[NodeId])>(), None).unwrap();
        let c = load_container(&path).unwrap();
        assert_eq!(c.graph.node_count(), 0);
        assert_eq!(c.graph.edge_count(), 0);
        assert!(c.keyword_nodes.is_empty());
        assert!(c.extra.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v1_and_foreign_files_are_rejected_by_version_and_magic() {
        let dir = unique_dir("ver");
        // A complete CGPH v1 header (magic, version, n, m) claiming 2^60
        // edges: rejected on the version field, before any count is read.
        let mut v1 = Vec::new();
        v1.extend_from_slice(b"CGPH");
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&3u64.to_le_bytes());
        v1.extend_from_slice(&(1u64 << 60).to_le_bytes());
        let p = dir.join("v1.cgph");
        std::fs::write(&p, &v1).unwrap();
        let err = load_container(&p).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version 1"), "got: {err}");
        // A file of another format — text, or a legacy `CBDL` bundle whose
        // header claims u32::MAX keywords — is named by its magic.
        let mut cbdl = b"CBDL".to_vec();
        cbdl.extend_from_slice(&1u32.to_le_bytes());
        cbdl.extend_from_slice(&u32::MAX.to_le_bytes());
        for foreign in [b"not a container".as_slice(), &cbdl] {
            std::fs::write(&p, foreign).unwrap();
            let err = load_container(&p).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("magic"), "got: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_is_atomic_on_write_failure() {
        // A mid-write failure (guard trip, crash, full disk) must leave
        // the previous container intact and no temp litter behind.
        let dir = unique_dir("atomic");
        let path = dir.join("g.cgph2");
        save_container(&path, &sample(), kw(), None).unwrap();
        let before = std::fs::read(&path).unwrap();
        let err = atomic_write(&path, |w| {
            use std::io::Write;
            w.write_all(b"partial garbage")?;
            Err(io::Error::other("simulated crash mid-write"))
        });
        assert!(err.is_err());
        assert_eq!(std::fs::read(&path).unwrap(), before, "old file clobbered");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|f| f.to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp litter: {leftovers:?}");
        assert!(load_container(&path).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_rejects_bad_keyword_maps() {
        let dir = unique_dir("wbad");
        let g = sample();
        // Out-of-range node.
        let err =
            save_container(dir.join("a"), &g, [("kw", [NodeId(99)].as_slice())], None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(!dir.join("a").exists(), "a failed save leaves no file");
        // Case collision.
        let err = save_container(
            dir.join("b"),
            &g,
            [
                ("kw", [NodeId(0)].as_slice()),
                ("KW", [NodeId(1)].as_slice()),
            ],
            None,
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every proper prefix of a valid container must be a clean error.
    #[test]
    fn truncation_corpus_every_prefix_is_a_clean_error() {
        let dir = unique_dir("trunc");
        let path = save_sample(&dir);
        let full = std::fs::read(&path).unwrap();
        let cut_path = dir.join("cut.cgph2");
        for cut in 0..full.len() {
            std::fs::write(&cut_path, &full[..cut]).unwrap();
            match load_container(&cut_path) {
                Err(e) => assert!(
                    matches!(
                        e.kind(),
                        io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                    ),
                    "cut {cut}: unexpected error kind {:?}",
                    e.kind()
                ),
                Ok(_) => panic!("cut {cut}/{} parsed instead of erroring", full.len()),
            }
        }
        assert!(load_container(&path).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Single-byte corruption anywhere in the file must be caught (header
    /// field checks, TOC checksum, or a section checksum).
    #[test]
    fn flipped_byte_corpus_is_always_rejected() {
        let dir = unique_dir("flip");
        let path = save_sample(&dir);
        let full = std::fs::read(&path).unwrap();
        let flip_path = dir.join("flip.cgph2");
        // Step 3 keeps the corpus fast while still covering header, TOC,
        // checksums, and every section; flipping the top bit corrupts
        // whatever field the byte belongs to.
        for i in (0..full.len()).step_by(3) {
            let mut bytes = full.clone();
            bytes[i] ^= 0x80;
            std::fs::write(&flip_path, &bytes).unwrap();
            match load_container(&flip_path) {
                Err(_) => {}
                Ok(c) => {
                    // A flip inside padding bytes is the only tolerable
                    // survival — the loaded graph must still be intact.
                    assert_eq!(
                        c.graph.edges().collect::<Vec<_>>(),
                        sample().edges().collect::<Vec<_>>(),
                        "flip at byte {i} silently changed the graph"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn misaligned_and_overlapping_sections_are_rejected() {
        let dir = unique_dir("geom");
        let path = save_sample(&dir);
        let full = std::fs::read(&path).unwrap();
        let count = read_u32(&full, 24) as usize;
        let toc_start = HEADER_BYTES;
        // Corrupt entry 1's offset to be misaligned, re-seal the TOC
        // checksum so geometry validation (not the checksum) rejects it.
        let mut bytes = full.clone();
        let e1 = toc_start + TOC_ENTRY_BYTES + 8;
        let off = read_u64(&bytes, e1);
        bytes[e1..e1 + 8].copy_from_slice(&(off + 4).to_le_bytes());
        let toc = bytes[toc_start..toc_start + count * TOC_ENTRY_BYTES].to_vec();
        bytes[32..40].copy_from_slice(&checksum64(&toc).to_le_bytes());
        let p = dir.join("misaligned.cgph2");
        std::fs::write(&p, &bytes).unwrap();
        let err = load_container(&p).unwrap_err();
        assert!(err.to_string().contains("8-aligned") || err.to_string().contains("preceding"));

        // Overlap: point entry 1 back at entry 0's offset.
        let mut bytes = full.clone();
        let e0_off = read_u64(&bytes, toc_start + 8);
        bytes[e1..e1 + 8].copy_from_slice(&e0_off.to_le_bytes());
        let toc = bytes[toc_start..toc_start + count * TOC_ENTRY_BYTES].to_vec();
        bytes[32..40].copy_from_slice(&checksum64(&toc).to_le_bytes());
        let p = dir.join("overlap.cgph2");
        std::fs::write(&p, &bytes).unwrap();
        assert!(load_container(&p).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_header_counts_cannot_preallocate() {
        let dir = unique_dir("hostile");
        let path = save_sample(&dir);
        let full = std::fs::read(&path).unwrap();
        // Claim ~2^61 nodes: rejected by the id-space check before any
        // O(n) structure exists.
        let mut bytes = full.clone();
        bytes[8..16].copy_from_slice(&(u64::MAX / 8).to_le_bytes());
        let p = dir.join("hn.cgph2");
        std::fs::write(&p, &bytes).unwrap();
        let err = load_container(&p).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Claim a huge edge count: the section-length agreement check
        // fires before any allocation sized by m.
        let mut bytes = full.clone();
        bytes[16..24].copy_from_slice(&(u64::from(u32::MAX)).to_le_bytes());
        let p = dir.join("hm.cgph2");
        std::fs::write(&p, &bytes).unwrap();
        let err = load_container(&p).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn structural_corruption_in_mapped_arrays_is_diagnosed() {
        // Corrupt CSR *content* (not geometry) and re-seal the section
        // checksum: the structural validation layer must still reject it.
        let dir = unique_dir("struct");
        let path = save_sample(&dir);
        let full = std::fs::read(&path).unwrap();
        let count = read_u32(&full, 24) as usize;
        // Locate section 2 (fwd targets) via the TOC.
        let mut tgt = None;
        for i in 0..count {
            let e = HEADER_BYTES + i * TOC_ENTRY_BYTES;
            if read_u32(&full, e) == SEC_FWD_TARGETS {
                tgt = Some((
                    e,
                    read_u64(&full, e + 8) as usize,
                    read_u64(&full, e + 16) as usize,
                ));
            }
        }
        let (toc_entry, off, len) = tgt.unwrap();
        let mut bytes = full.clone();
        // First target becomes out-of-range node 999; re-seal the section
        // checksum, then the TOC checksum over the edited TOC.
        bytes[off..off + 4].copy_from_slice(&999u32.to_le_bytes());
        let fixed = checksum64(&bytes[off..off + len]);
        bytes[toc_entry + 24..toc_entry + 32].copy_from_slice(&fixed.to_le_bytes());
        let toc = bytes[HEADER_BYTES..HEADER_BYTES + count * TOC_ENTRY_BYTES].to_vec();
        bytes[32..40].copy_from_slice(&checksum64(&toc).to_le_bytes());
        let p = dir.join("badtarget.cgph2");
        std::fs::write(&p, &bytes).unwrap();
        let err = load_container(&p).unwrap_err();
        assert!(err.to_string().contains("outside"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn keyword_section_contract_is_enforced() {
        let dir = unique_dir("kwsec");
        let path = save_sample(&dir);
        let full = std::fs::read(&path).unwrap();
        let count = read_u32(&full, 24) as usize;
        let mut kwsec = None;
        for i in 0..count {
            let e = HEADER_BYTES + i * TOC_ENTRY_BYTES;
            if read_u32(&full, e) == SEC_KEYWORDS {
                kwsec = Some((
                    e,
                    read_u64(&full, e + 8) as usize,
                    read_u64(&full, e + 16) as usize,
                ));
            }
        }
        let (toc_entry, off, len) = kwsec.unwrap();
        // Re-seals the section checksum and then the TOC checksum, so
        // only the structural keyword validation can reject the file.
        let reseal = |bytes: &mut Vec<u8>| {
            let sum = checksum64(&bytes[off..off + len]);
            bytes[toc_entry + 24..toc_entry + 32].copy_from_slice(&sum.to_le_bytes());
            let toc = bytes[HEADER_BYTES..HEADER_BYTES + count * TOC_ENTRY_BYTES].to_vec();
            bytes[32..40].copy_from_slice(&checksum64(&toc).to_le_bytes());
        };
        // Uppercase the first keyword's first letter ("alpha" → "Alpha"):
        // unreachable through the lowercasing getter, so rejected.
        let mut bytes = full.clone();
        bytes[off + 8] = b'A';
        reseal(&mut bytes);
        let p = dir.join("upper.cgph2");
        std::fs::write(&p, &bytes).unwrap();
        let err = load_container(&p).unwrap_err();
        assert!(err.to_string().contains("lowercase"), "got: {err}");
        // Swap the two nodes of "alpha" ([0, 2] → [2, 0]): not strictly
        // increasing, violating the sorted-distinct contract.
        let mut bytes = full.clone();
        let nodes_at = off + 4 + 4 + 5 + 4; // count, klen, "alpha", nlen
        bytes[nodes_at..nodes_at + 4].copy_from_slice(&2u32.to_le_bytes());
        bytes[nodes_at + 4..nodes_at + 8].copy_from_slice(&0u32.to_le_bytes());
        reseal(&mut bytes);
        let p = dir.join("unsorted.cgph2");
        std::fs::write(&p, &bytes).unwrap();
        let err = load_container(&p).unwrap_err();
        assert!(
            err.to_string().contains("strictly increasing"),
            "got: {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
