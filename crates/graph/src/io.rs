//! File-writing discipline shared by every on-disk format in the
//! workspace: atomic replacement and a cap on speculative preallocation.
//! The format itself lives in [`crate::container`].

use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Upper bound on speculative preallocation from header counts. Larger
/// (legitimate) inputs still load fine — collections just grow as records
/// actually arrive instead of trusting the header up front. Shared by
/// every on-disk reader in the workspace (`crate::container`,
/// `comm-core`'s projection-index blob) so a hostile count can never
/// reserve more than ~16 MiB before real bytes back it.
pub const PREALLOC_CAP: usize = 1 << 20;

/// Writes a file atomically: the payload goes to a unique temp file in the
/// same directory, is flushed and `fsync`ed, and only then renamed over
/// `path`. A crash (or guard trip) mid-write therefore leaves any previous
/// file at `path` untouched — never a half-written hybrid — and the temp
/// file is removed on error.
pub fn atomic_write(
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
