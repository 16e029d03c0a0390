//! File-system benchmarks (paper §5.3, §6.8) and the `lmdd` I/O tool
//! (§2, §6.9).
//!
//! * [`reread`] — cached-file bandwidth through `read(2)` in 64 KB buffers,
//!   each buffer summed "for an apples-to-apples comparison \[with\] the
//!   memory-mapped benchmark" (Table 5).
//! * [`mmap_reread`] — the same file through `mmap(2)`, summed in place
//!   (Table 5's `File mmap` column).
//! * [`create_delete`] — file-system latency, "the time required to create
//!   or delete a zero length file" (Table 16), 1 000 short-named files in
//!   one directory, and the same body swept over name length and
//!   directory population.
//! * [`lmdd`] — the suite's dd-style sequential/random I/O workhorse with
//!   pattern generation and checking ("lmdd proved to be more accurate than
//!   any of the other benchmarks").

pub mod create_delete;
pub mod lmdd;
pub mod mmap_reread;
pub mod reread;

pub use create_delete::{measure_create_delete, CreateDeleteResult};
pub use lmdd::{Lmdd, LmddReport, SeekMode};
pub use mmap_reread::measure_mmap_reread;
pub use reread::measure_file_reread;

use std::path::PathBuf;

/// A fresh path under the system temp dir, unique to this process and
/// moment, for a scratch file or directory.
fn scratch_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "lmb-fs-{tag}-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0)
    ))
}

/// A scratch file that removes itself on drop.
#[derive(Debug)]
pub struct ScratchFile {
    path: PathBuf,
}

impl ScratchFile {
    /// Creates a scratch file of `size` bytes filled with a word-indexed
    /// pattern, in the system temp directory.
    pub fn create(tag: &str, size: usize) -> std::io::Result<Self> {
        let path = scratch_path(tag);
        let mut data = Vec::with_capacity(size);
        let words = size / 4;
        for w in 0..words {
            data.extend_from_slice(&(w as u32).to_ne_bytes());
        }
        data.resize(size, 0);
        std::fs::write(&path, &data)?;
        Ok(Self { path })
    }

    /// Path of the scratch file.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_file_has_requested_size_and_cleans_up() {
        let path;
        {
            let f = ScratchFile::create("sized", 10_000).unwrap();
            path = f.path().to_path_buf();
            assert_eq!(std::fs::metadata(&path).unwrap().len(), 10_000);
        }
        assert!(!path.exists(), "scratch file leaked");
    }

    #[test]
    fn scratch_file_pattern_is_word_indexed() {
        let f = ScratchFile::create("pattern", 64).unwrap();
        let data = std::fs::read(f.path()).unwrap();
        for w in 0..16usize {
            let got = u32::from_ne_bytes(data[w * 4..w * 4 + 4].try_into().unwrap());
            assert_eq!(got, w as u32);
        }
    }
}
