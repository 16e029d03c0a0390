//! File-system create/delete latency (paper §6.8, Table 16).
//!
//! "File system latency is defined as the time required to create or delete
//! a zero length file. ... The benchmark creates 1,000 zero-sized files and
//! then deletes them. All the files are created in one directory and their
//! names are short, such as "a", "b", "c", ... "aa", "ab", ..."
//!
//! The paper's spread here was three orders of magnitude: systems doing
//! synchronous directory updates (BSD FFS) paid tens of milliseconds per
//! file, log or in-memory systems (XFS, ext2) tens to hundreds of
//! microseconds.
//!
//! Table 16 fixes the directory's population (empty) and the name length
//! (short); [`population_sweep`] and [`name_length_sweep`] move them,
//! exposing the directory-lookup data structures behind the fixed-point
//! number — linear directories of the era degraded visibly with
//! population, hashed/tree directories do not. Table 16 is the sweeps'
//! point at population 0 with one-letter names.

use lmb_timing::{Harness, Latency, TimeUnit};
use std::fs;
use std::path::{Path, PathBuf};

/// Per-file create and delete latencies at one directory population and
/// name length — a Table 16 row, or one point of a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CreateDeleteResult {
    /// Files created/deleted per timed interval.
    pub files: usize,
    /// Pre-existing files in the directory while measuring.
    pub population: usize,
    /// Minimum length of each file name, bytes.
    pub name_len: usize,
    /// Per-file creation latency.
    pub create: Latency,
    /// Per-file deletion latency.
    pub delete: Latency,
}

/// Generates the paper's short names: "a".."z", "aa", "ab", ... (bijective
/// base-26).
pub fn short_name(mut i: usize) -> String {
    let mut out = Vec::new();
    loop {
        out.push(b'a' + (i % 26) as u8);
        i /= 26;
        if i == 0 {
            break;
        }
        i -= 1;
    }
    out.reverse();
    String::from_utf8(out).expect("ascii")
}

/// Deterministic name for index `i`, padded with `_` to `len` bytes.
///
/// The unique base ([`short_name`]) is always kept whole, so names stay
/// unique even when the base exceeds `len`; `fixed_name(i, 1)` is
/// `short_name(i)`.
pub fn fixed_name(i: usize, len: usize) -> String {
    assert!(len >= 1, "name too short");
    let mut name = short_name(i);
    while name.len() < len {
        name.push('_');
    }
    name
}

/// Zero-length files that exist until this is dropped or
/// [`Files::remove`]d.
struct Files<'a>(&'a [PathBuf]);

impl<'a> Files<'a> {
    fn create(paths: &'a [PathBuf]) -> Self {
        for path in paths {
            fs::File::create(path).expect("create zero-length file");
        }
        Self(paths)
    }

    fn remove(mut self) {
        for path in std::mem::take(&mut self.0) {
            fs::remove_file(path).expect("delete file");
        }
    }
}

impl Drop for Files<'_> {
    fn drop(&mut self) {
        for path in self.0 {
            let _ = fs::remove_file(path);
        }
    }
}

/// Measures per-file create and delete latency of `files` files with
/// `name_len`-byte names in `dir`, which holds `population` other files
/// meanwhile.
///
/// Each timed interval creates (or deletes) the whole batch. The create
/// measurement deletes its files after the clock stops; the delete
/// measurement creates them before the clock starts.
///
/// # Panics
///
/// Panics if `files` is zero or any file operation fails.
pub fn measure_create_delete(
    h: &Harness,
    dir: &Path,
    population: usize,
    files: usize,
    name_len: usize,
) -> CreateDeleteResult {
    assert!(files > 0, "need at least one file");
    // Pre-populate with names disjoint from the measured set.
    let existing: Vec<PathBuf> = (0..population)
        .map(|i| dir.join(format!("pre{i:08}")))
        .collect();
    let _existing = Files::create(&existing);
    let names: Vec<PathBuf> = (0..files)
        .map(|i| dir.join(fixed_name(i, name_len)))
        .collect();
    let ops = files as u64;
    let create = h.measure_staged(ops, || (), |()| Files::create(&names));
    let delete = h.measure_staged(ops, || Files::create(&names), Files::remove);
    CreateDeleteResult {
        files,
        population,
        name_len,
        create: create.latency(TimeUnit::Micros),
        delete: delete.latency(TimeUnit::Micros),
    }
}

/// Table 16: `files` short-named files in a fresh, otherwise empty scratch
/// directory (paper: 1 000), which is removed afterwards.
pub fn measure_in_tempdir(h: &Harness, files: usize) -> CreateDeleteResult {
    in_scratch_dir("fslat", |dir| measure_create_delete(h, dir, 0, files, 1))
}

/// Sweeps directory populations at 8-byte names, in a fresh scratch dir.
pub fn population_sweep(
    h: &Harness,
    populations: &[usize],
    files: usize,
) -> Vec<CreateDeleteResult> {
    in_scratch_dir("pop", |dir| {
        populations
            .iter()
            .map(|&p| measure_create_delete(h, dir, p, files, 8))
            .collect()
    })
}

/// Sweeps name lengths in an otherwise empty scratch dir.
pub fn name_length_sweep(h: &Harness, lengths: &[usize], files: usize) -> Vec<CreateDeleteResult> {
    in_scratch_dir("names", |dir| {
        lengths
            .iter()
            .map(|&l| measure_create_delete(h, dir, 0, files, l))
            .collect()
    })
}

/// Runs `body` in a fresh scratch directory under the system temp dir,
/// removing the directory afterwards, also when `body` panics.
fn in_scratch_dir<T>(tag: &str, body: impl FnOnce(&Path) -> T) -> T {
    struct Scratch(PathBuf);
    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir(&self.0);
        }
    }
    let dir = Scratch(crate::scratch_path(tag));
    fs::create_dir_all(&dir.0).expect("create scratch dir");
    body(&dir.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmb_timing::Options;

    fn harness() -> Harness {
        Harness::new(Options::quick().with_repetitions(2))
    }

    #[test]
    fn short_names_match_the_paper() {
        assert_eq!(short_name(0), "a");
        assert_eq!(short_name(1), "b");
        assert_eq!(short_name(25), "z");
        assert_eq!(short_name(26), "aa");
        assert_eq!(short_name(27), "ab");
        assert_eq!(short_name(26 + 26 * 26), "aaa");
    }

    #[test]
    fn short_names_are_unique() {
        let names: std::collections::HashSet<String> = (0..2000).map(short_name).collect();
        assert_eq!(names.len(), 2000);
    }

    #[test]
    fn fixed_names_are_unique_and_sized() {
        let names: std::collections::HashSet<String> = (0..500).map(|i| fixed_name(i, 8)).collect();
        assert_eq!(names.len(), 500);
        assert!(names.iter().all(|n| n.len() == 8));
    }

    #[test]
    fn long_names_keep_uniqueness() {
        let a = fixed_name(0, 64);
        let b = fixed_name(1, 64);
        assert_ne!(a, b);
        assert_eq!(a.len(), 64);
    }

    #[test]
    fn one_byte_fixed_names_are_the_papers_short_names() {
        assert!((0..2000).all(|i| fixed_name(i, 1) == short_name(i)));
    }

    #[test]
    fn create_delete_round_trip_cleans_dir() {
        let r = measure_in_tempdir(&harness(), 100);
        assert_eq!(r.files, 100);
        assert!(r.create.as_micros() > 0.0);
        assert!(r.delete.as_micros() > 0.0);
    }

    #[test]
    fn latencies_are_bounded_sane() {
        let r = measure_in_tempdir(&harness(), 200);
        // Even a synchronous-update fs stays under 100ms/file.
        assert!(r.create.as_micros() < 100_000.0, "create {}", r.create);
        assert!(r.delete.as_micros() < 100_000.0, "delete {}", r.delete);
    }

    #[test]
    #[should_panic(expected = "at least one file")]
    fn zero_files_rejected() {
        measure_in_tempdir(&harness(), 0);
    }

    #[test]
    fn scaling_point_cleans_up_fully() {
        in_scratch_dir("clean", |dir| {
            let p = measure_create_delete(&harness(), dir, 50, 50, 8);
            assert!(p.create.as_micros() > 0.0);
            assert!(p.delete.as_micros() > 0.0);
            assert_eq!(
                fs::read_dir(dir).unwrap().count(),
                0,
                "scaling run leaked files"
            );
        });
    }

    #[test]
    fn population_sweep_produces_requested_points() {
        let pts = population_sweep(&harness(), &[0, 200], 50);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].population, 0);
        assert_eq!(pts[1].population, 200);
        for p in &pts {
            assert!(p.create.as_micros() > 0.0);
        }
    }

    #[test]
    fn name_length_sweep_produces_requested_points() {
        let pts = name_length_sweep(&harness(), &[2, 32], 50);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].name_len, 2);
        assert_eq!(pts[1].name_len, 32);
    }
}
