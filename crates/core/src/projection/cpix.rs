//! CPIX v2: the serialized [`ProjectionIndex`], and its decoder for
//! untrusted bytes.

use super::{KeywordEntry, ProjectionIndex};
use comm_graph::container::checksum64;
use comm_graph::weight::index_to_u32;
use comm_graph::{Csr, NodeId, Weight};
use std::collections::HashMap;
use std::io;

const CPIX_MAGIC: [u8; 4] = *b"CPIX";
const CPIX_VERSION: u32 = 2;

impl ProjectionIndex {
    /// Serializes the index to a compact little-endian blob (CPIX v2),
    /// suitable for the *extra* section of a CGPH v2 container
    /// ([`comm_graph::container`]) so a warm start restores the built
    /// index without re-running the per-keyword sweeps.
    ///
    /// Layout: magic, version, radius, `|V(G_D)|`, `U`, the row arrays
    /// (offsets, targets, weights), then per keyword — in sorted order, so
    /// equal indexes encode to identical bytes regardless of `HashMap`
    /// iteration order — `V_w` and its run (ids, then distances), and a
    /// trailing [`checksum64`] of everything before it.
    pub fn encode(&self) -> Vec<u8> {
        fn put_ids(out: &mut Vec<u8>, ids: &[NodeId]) {
            out.extend(ids.iter().flat_map(|v| v.0.to_le_bytes()));
        }
        fn put_weights(out: &mut Vec<u8>, ws: &[Weight]) {
            out.extend(ws.iter().flat_map(|w| w.get().to_le_bytes()));
        }
        let mut out = Vec::new();
        out.extend_from_slice(&CPIX_MAGIC);
        out.extend_from_slice(&CPIX_VERSION.to_le_bytes());
        out.extend_from_slice(&self.radius.get().to_le_bytes());
        out.extend_from_slice(&(self.node_count as u64).to_le_bytes());
        out.extend_from_slice(&(self.nodes.len() as u64).to_le_bytes());
        put_ids(&mut out, &self.nodes);
        out.extend_from_slice(&(self.rows.edge_count() as u64).to_le_bytes());
        out.extend(self.rows.offsets().iter().flat_map(|o| o.to_le_bytes()));
        put_ids(&mut out, self.rows.targets());
        put_weights(&mut out, self.rows.weights());
        let mut keys: Vec<&String> = self.entries.keys().collect();
        keys.sort_unstable();
        out.extend_from_slice(&(keys.len() as u64).to_le_bytes());
        for kw in keys {
            let entry = &self.entries[kw];
            out.extend_from_slice(&index_to_u32(kw.len()).to_le_bytes());
            out.extend_from_slice(kw.as_bytes());
            out.extend_from_slice(&(entry.nodes.len() as u64).to_le_bytes());
            put_ids(&mut out, &entry.nodes);
            out.extend_from_slice(&(entry.reach_ids.len() as u64).to_le_bytes());
            put_ids(&mut out, &entry.reach_ids);
            put_weights(&mut out, &entry.reach_dist);
        }
        let sum = checksum64(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Deserializes an index previously written by
    /// [`encode`](Self::encode), treating the bytes as hostile. Counts are
    /// claims, never trusted for allocation — every read is bounded by the
    /// bytes actually left, with speculative preallocation capped — and
    /// everything the query path indexes by is re-validated: the checksum;
    /// `U` strictly increasing and in range; the row arrays a well-formed
    /// square half over `U` ([`Csr::from_parts`]); lowercase distinct
    /// keys; `V_w` strictly increasing; run ids below `|U|` and distinct;
    /// distances finite, at most the radius and non-decreasing along a
    /// run; every `V_w` node in its run at distance 0; exact consumption.
    /// The loops are bounded by the length-checked blob, not by graph
    /// size, so there is no guard: callers charge the blob's bytes to
    /// their `RunGuard` before decoding.
    pub fn decode(bytes: &[u8]) -> io::Result<ProjectionIndex> {
        let body_len = bytes.len().checked_sub(8).ok_or_else(truncated)?;
        let mut r = Reader(&bytes[..body_len]);
        if r.take(4)? != CPIX_MAGIC {
            return Err(bad("not a projection index blob"));
        }
        if r.u32()? != CPIX_VERSION {
            return Err(bad("unsupported projection index version"));
        }
        if Reader(&bytes[body_len..]).u64()? != checksum64(&bytes[..body_len]) {
            return Err(bad("projection index checksum mismatch"));
        }
        let radius = r.weights(1)?[0];
        let n64 = r.u64()?;
        if n64 > u64::from(u32::MAX) + 1 {
            return Err(bad("node count exceeds the u32 node-id space"));
        }
        let node_count =
            usize::try_from(n64).map_err(|_| bad("node count exceeds host address width"))?;

        let nu = r.count(4)?;
        let nodes = r.ids(nu)?;
        if nodes.windows(2).any(|w| w[0] >= w[1])
            || nodes.last().is_some_and(|v| v.index() >= node_count)
        {
            return Err(bad("reach set not strictly increasing within the graph"));
        }
        let m = r.count(12)?;
        let (offsets, targets, weights) = (r.u32s(nu + 1)?, r.ids(m)?, r.weights(m)?);
        let rows = Csr::from_parts(offsets, targets, weights).map_err(|e| bad(&e.to_string()))?;

        let kw_count = r.u64()?;
        let prealloc = usize::try_from(kw_count).unwrap_or(usize::MAX);
        let mut entries = HashMap::with_capacity(prealloc.min(comm_graph::io::PREALLOC_CAP));
        // seen[u] = 2k + 1 once keyword k's run listed u at distance 0,
        // 2k + 2 once it listed u farther out.
        let mut seen = vec![0u64; nu];
        for k in 0..kw_count {
            let klen = r.u32()? as usize;
            let kw = std::str::from_utf8(r.take(klen)?)
                .map_err(|_| bad("keyword is not UTF-8"))?
                .to_string();
            if kw != kw.to_lowercase() {
                return Err(bad("keyword is not lowercase"));
            }
            let nlen = r.count(4)?;
            let v_w = r.ids(nlen)?;
            if v_w.windows(2).any(|w| w[0] >= w[1]) {
                return Err(bad("keyword node list not strictly increasing"));
            }
            let rlen = r.count(12)?;
            let (reach_ids, reach_dist) = (r.ids(rlen)?, r.weights(rlen)?);
            if reach_dist.windows(2).any(|w| w[0] > w[1])
                || reach_dist.last().is_some_and(|&d| d > radius)
            {
                return Err(bad("run distances not non-decreasing within the radius"));
            }
            for (u, d) in reach_ids.iter().zip(&reach_dist) {
                let slot = seen
                    .get_mut(u.index())
                    .ok_or_else(|| bad("run id out of range"))?;
                if *slot > 2 * k {
                    return Err(bad("run lists a node twice"));
                }
                *slot = 2 * k + 1 + u64::from(d.get() != 0.0);
            }
            let heads_run = |v: &NodeId| nodes.binary_search(v).is_ok_and(|u| seen[u] == 2 * k + 1);
            if !v_w.iter().all(heads_run) {
                return Err(bad("keyword node not at distance 0 of its run"));
            }
            let entry = KeywordEntry {
                nodes: v_w.into(),
                reach_ids,
                reach_dist: reach_dist.into(),
            };
            if entries.insert(kw, entry).is_some() {
                return Err(bad("duplicate keyword entry"));
            }
        }
        if !r.0.is_empty() {
            return Err(bad("trailing bytes after the projection index"));
        }
        Ok(ProjectionIndex {
            radius,
            node_count,
            nodes,
            rows,
            entries,
        })
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn truncated() -> io::Error {
    bad("projection index blob truncated")
}

/// A bounded little-endian reader over the bytes not yet consumed.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.0.len() < n {
            return Err(truncated());
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let mut b = [0u8; N];
        b.copy_from_slice(self.take(N)?);
        Ok(b)
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A count of `size`-byte records, rejected unless that many bytes are
    /// actually left — so allocating for it is bounded by the blob.
    fn count(&mut self, size: usize) -> io::Result<usize> {
        let claimed = usize::try_from(self.u64()?).ok();
        let fits = |n: &usize| n.checked_mul(size).is_some_and(|b| b <= self.0.len());
        claimed.filter(fits).ok_or_else(truncated)
    }

    fn u32s(&mut self, count: usize) -> io::Result<Vec<u32>> {
        let raw = self.take(count.checked_mul(4).ok_or_else(truncated)?)?;
        let word = |c: &[u8]| u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        Ok(raw.chunks_exact(4).map(word).collect())
    }

    fn ids(&mut self, count: usize) -> io::Result<Vec<NodeId>> {
        Ok(self.u32s(count)?.into_iter().map(NodeId).collect())
    }

    /// `count` finite, non-negative weights.
    fn weights(&mut self, count: usize) -> io::Result<Vec<Weight>> {
        let raw = self.take(count.checked_mul(8).ok_or_else(truncated)?)?;
        let weight = |c: &[u8]| {
            let mut b = [0u8; 8];
            b.copy_from_slice(c);
            Weight::try_new(f64::from_le_bytes(b)).filter(|w| w.is_finite())
        };
        let ws: Option<Vec<Weight>> = raw.chunks_exact(8).map(weight).collect();
        ws.ok_or_else(|| bad("weight or distance not finite and non-negative"))
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::index;
    use super::*;
    use crate::projection::comm_k_on_index;
    use crate::{Core, CostFn, QueryError};
    use comm_datasets::paper_example::FIG4_RMAX;
    use comm_graph::RunGuard;
    use std::sync::Arc;

    #[test]
    fn encode_decode_roundtrip_is_lossless_and_deterministic() {
        let (_, idx) = index(8.0);
        let blob = idx.encode();
        let back = ProjectionIndex::decode(&blob).unwrap();
        assert_eq!(back.radius(), idx.radius());
        assert_eq!(back.keyword_count(), idx.keyword_count());
        assert_eq!(back.byte_size(), idx.byte_size());
        assert_eq!(back.node_count, idx.node_count);
        for kw in ["a", "b", "c"] {
            assert_eq!(back.nodes_of(kw), idx.nodes_of(kw), "nodes of {kw}");
            assert_eq!(back.reach_of(kw), idx.reach_of(kw), "run of {kw}");
        }
        // Deterministic bytes: re-encoding the decoded index is identical
        // (keywords are emitted sorted, not in HashMap order).
        assert_eq!(back.encode(), blob);
    }

    #[test]
    fn decoded_index_answers_queries_identically() {
        let (_, idx) = index(8.0);
        let back = ProjectionIndex::decode(&idx.encode()).unwrap();
        let want = comm_k_on_index(
            &idx,
            &["a", "b", "c"],
            Weight::new(FIG4_RMAX),
            5,
            CostFn::SumDistances,
            RunGuard::unlimited(),
        )
        .unwrap()
        .into_value();
        let got = comm_k_on_index(
            &back,
            &["a", "b", "c"],
            Weight::new(FIG4_RMAX),
            5,
            CostFn::SumDistances,
            RunGuard::unlimited(),
        )
        .unwrap()
        .into_value();
        assert_eq!(want.len(), got.len());
        for (a, b) in want.iter().zip(&got) {
            assert_eq!(a.core, b.core);
            assert_eq!(a.cost, b.cost);
        }
    }

    /// Re-seals a (mutated) blob body with the checksum `decode` expects,
    /// so the structural checks behind it are what rejects the mutation.
    fn seal(mut body: Vec<u8>) -> Vec<u8> {
        let sum = checksum64(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        body
    }

    fn top5(idx: &ProjectionIndex) -> Result<Vec<(Core, Weight)>, QueryError> {
        let rmax = Weight::new(FIG4_RMAX);
        let guard = RunGuard::unlimited();
        let out = comm_k_on_index(idx, &["a", "b", "c"], rmax, 5, CostFn::SumDistances, guard)?;
        Ok(out
            .into_value()
            .into_iter()
            .map(|c| (c.core, c.cost))
            .collect())
    }

    #[test]
    fn decode_truncation_corpus_every_prefix_is_a_clean_error() {
        let (_, idx) = index(8.0);
        let blob = idx.encode();
        for cut in 0..blob.len() {
            assert!(
                ProjectionIndex::decode(&blob[..cut]).is_err(),
                "cut {cut}/{} parsed instead of erroring",
                blob.len()
            );
        }
        // Every proper prefix of the body under a valid checksum: the
        // bounded reads, not the checksum, must turn it away.
        let body = &blob[..blob.len() - 8];
        for cut in 0..body.len() {
            assert!(
                ProjectionIndex::decode(&seal(body[..cut].to_vec())).is_err(),
                "sealed cut {cut}/{} parsed instead of erroring",
                body.len()
            );
        }
        assert_eq!(seal(body.to_vec()), blob);
        assert!(ProjectionIndex::decode(&blob).is_ok());
    }

    #[test]
    fn decode_bit_flip_sweep_never_panics_or_changes_an_answer() {
        let (_, idx) = index(8.0);
        let blob = idx.encode();
        let want = top5(&idx).unwrap();
        for bit in 0..blob.len() * 8 {
            let mut flipped = blob.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Ok(back) = ProjectionIndex::decode(&flipped) {
                assert_eq!(top5(&back).unwrap(), want, "bit {bit} changed the answer");
            }
            // Re-sealed, a flip is a different but possibly well-formed
            // index: it may be accepted, and then must answer (or refuse)
            // without panicking.
            let body = flipped.len() - 8;
            flipped.truncate(body);
            if let Ok(back) = ProjectionIndex::decode(&seal(flipped)) {
                let _ = top5(&back);
            }
        }
    }

    #[test]
    fn decode_rejects_contract_violations() {
        let (_, idx) = index(8.0);
        let blob = idx.encode();
        let body = blob[..blob.len() - 8].to_vec();
        let rejects = |b: &[u8], what: &str| {
            let err = ProjectionIndex::decode(b).err();
            let err = err.unwrap_or_else(|| panic!("{what} was accepted"));
            err.to_string()
        };
        let mut b = blob.clone();
        b.push(0);
        rejects(&b, "trailing garbage");
        let mut b = body.clone();
        b.push(0);
        rejects(&seal(b), "sealed trailing garbage");
        let mut b = blob.clone();
        b[0] = b'X';
        rejects(&b, "bad magic");
        // A v1 blob (or any other version) is turned away by its version,
        // before the checksum it never carried is looked at.
        let mut b = blob.clone();
        b[4] = 1;
        assert!(rejects(&b, "a v1 blob").contains("version"));
        let mut b = body.clone();
        b[8..16].copy_from_slice(&f64::NAN.to_le_bytes());
        rejects(&seal(b), "NaN radius");
        // Hostile count claims must be rejected before any allocation:
        // |V(G_D)| at offset 16, |U| at 24.
        for at in [16, 24] {
            let mut b = body.clone();
            b[at..at + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
            rejects(&seal(b), "hostile count");
        }
        // A row target pointing outside U: the first target sits after
        // the header (32), U, the edge count (8) and the offsets.
        let nu = idx.nodes.len();
        let at = 32 + 4 * nu + 8 + 4 * (nu + 1);
        let mut b = body.clone();
        b[at..at + 4].copy_from_slice(&index_to_u32(nu).to_le_bytes());
        rejects(&seal(b), "row target out of range");

        // Everything else the query path indexes by, corrupted in a
        // well-formed index and written out by the real encoder.
        type Edit = fn(&mut ProjectionIndex);
        let edits: [(&str, Edit); 9] = [
            ("U not increasing", |i| i.nodes.swap(0, 1)),
            ("U beyond the graph", |i| i.node_count = 3),
            ("uppercase keyword", |i| {
                let e = i.entries.remove("a").unwrap();
                i.entries.insert("A".into(), e);
            }),
            ("V_w not increasing", |i| {
                let e = i.entries.get_mut("a").unwrap();
                Arc::get_mut(&mut e.nodes).unwrap().reverse()
            }),
            ("run id out of range", |i| {
                let nu = index_to_u32(i.nodes.len());
                i.entries.get_mut("a").unwrap().reach_ids[0] = NodeId(nu);
            }),
            ("run id twice", |i| {
                let e = i.entries.get_mut("a").unwrap();
                e.reach_ids[1] = e.reach_ids[0];
            }),
            ("distances decreasing", |i| {
                let e = i.entries.get_mut("a").unwrap();
                *Arc::get_mut(&mut e.reach_dist).unwrap().last_mut().unwrap() = Weight::ZERO;
            }),
            ("distance beyond the radius", |i| {
                let e = i.entries.get_mut("a").unwrap();
                *Arc::get_mut(&mut e.reach_dist).unwrap().last_mut().unwrap() = Weight::new(9.0);
            }),
            ("V_w node away from distance 0", |i| {
                let e = i.entries.get_mut("a").unwrap();
                let far = i.nodes[e.reach_ids.last().unwrap().index()];
                e.nodes = [far].into();
            }),
        ];
        for (what, edit) in edits {
            let (_, mut bad) = index(8.0);
            edit(&mut bad);
            rejects(&bad.encode(), what);
        }
    }
}
