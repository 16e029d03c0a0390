//! Suite configuration: the paper's sizing rules as tunable defaults.

use crate::error::SuiteError;
use lmb_timing::Options;
use std::time::Duration;

/// When the engine re-runs a noisy benchmark.
///
/// The paper compensates for run-to-run variability by repeating and
/// summarizing (§3.4); the engine adds one more layer on top: if a
/// benchmark's samples disperse beyond `cv_threshold`, it is re-run from
/// scratch, up to `max_attempts` total tries, and the quietest attempt's
/// result is kept implicitly (later attempts replace earlier ones).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct RetryPolicy {
    /// Total tries per benchmark (1 = never retry).
    pub max_attempts: u32,
    /// Coefficient-of-variation ceiling above which a retry triggers.
    pub cv_threshold: f64,
}

impl RetryPolicy {
    /// Never retry.
    #[must_use]
    pub fn never() -> Self {
        RetryPolicy {
            max_attempts: 1,
            cv_threshold: f64::INFINITY,
        }
    }

    /// One retry when samples spread more than 25% around their mean —
    /// the paper's observation that context-switch style numbers vary "by
    /// up to 30%" motivates the ballpark.
    #[must_use]
    pub fn on_noise() -> Self {
        RetryPolicy {
            max_attempts: 2,
            cv_threshold: 0.25,
        }
    }
}

/// How much the CLI narrates to stderr.
///
/// Precedence is fixed: `--quiet` beats `--verbose` beats the default, so
/// scripts composing flag sets get deterministic output whatever order the
/// flags arrive in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verbosity {
    /// Nothing but errors (and stdout data).
    Quiet,
    /// Suite summary and anything abnormal.
    Normal,
    /// Live scheduling, probes, calibration and per-metric narration.
    Verbose,
}

impl Verbosity {
    /// Resolves the `--quiet`/`--verbose` flag pair; quiet wins.
    #[must_use]
    pub fn from_flags(quiet: bool, verbose: bool) -> Self {
        if quiet {
            Verbosity::Quiet
        } else if verbose {
            Verbosity::Verbose
        } else {
            Verbosity::Normal
        }
    }
}

/// How much of each benchmark to run.
///
/// Construct via [`SuiteConfig::paper`] or [`SuiteConfig::quick`] and
/// refine with the `with_*` builders; the struct is `#[non_exhaustive]`
/// so engine knobs can be added without breaking downstream constructors.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct SuiteConfig {
    /// Harness options (warm-up, repetitions, summary policy).
    pub options: Options,
    /// Bytes per side of the bcopy buffers (paper: 8 MB, auto-resized).
    pub copy_bytes: usize,
    /// Scratch file size for the re-read benchmarks (paper: 8 MB).
    pub file_bytes: usize,
    /// Largest array in the memory-latency sweep (paper: 8 MB+).
    pub sweep_max: usize,
    /// Total bytes streamed by the pipe/TCP bandwidth runs (paper: 50 MB).
    pub stream_total: usize,
    /// Token laps per context-switch repetition (paper: 2000 passes).
    pub ctx_passes: usize,
    /// Files for the create/delete benchmark (paper: 1000).
    pub fs_files: usize,
    /// Round trips per latency repetition.
    pub round_trips: usize,
    /// Simulated-disk commands for the Table 17 run.
    pub disk_ops: u64,
    /// Wall-clock budget per benchmark before the engine declares it hung.
    pub bench_timeout: Duration,
    /// When to re-run a noisy benchmark.
    pub retry: RetryPolicy,
}

impl SuiteConfig {
    /// Paper-scale parameters — minutes of wall time.
    pub fn paper() -> Self {
        Self {
            options: Options::paper(),
            copy_bytes: 8 << 20,
            file_bytes: 8 << 20,
            sweep_max: 32 << 20,
            stream_total: 50 << 20,
            ctx_passes: 2000,
            fs_files: 1000,
            round_trips: 1000,
            disk_ops: 8192,
            bench_timeout: Duration::from_secs(900),
            retry: RetryPolicy::on_noise(),
        }
    }

    /// Small parameters for smoke tests and CI — a few seconds.
    pub fn quick() -> Self {
        Self {
            options: Options::quick().with_repetitions(2),
            copy_bytes: 1 << 20,
            file_bytes: 1 << 20,
            sweep_max: 4 << 20,
            stream_total: 4 << 20,
            ctx_passes: 100,
            fs_files: 100,
            round_trips: 100,
            disk_ops: 1024,
            bench_timeout: Duration::from_secs(120),
            retry: RetryPolicy::never(),
        }
    }

    /// Replaces the harness options.
    #[must_use]
    pub fn with_options(mut self, options: Options) -> Self {
        self.options = options;
        self
    }

    /// Replaces the harness summary policy.
    #[must_use]
    pub fn with_policy(mut self, policy: lmb_timing::SummaryPolicy) -> Self {
        self.options = self.options.with_policy(policy);
        self
    }

    /// Replaces the harness repetition count.
    #[must_use]
    pub fn with_repetitions(mut self, repetitions: u32) -> Self {
        self.options = self.options.with_repetitions(repetitions);
        self
    }

    /// Replaces the per-benchmark wall-clock budget.
    #[must_use]
    pub fn with_timeout(mut self, bench_timeout: Duration) -> Self {
        self.bench_timeout = bench_timeout;
        self
    }

    /// Replaces the retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Validates internal consistency; `Err` names the violated rule.
    pub fn validate(&self) -> Result<(), SuiteError> {
        fn rule(ok: bool, what: &'static str) -> Result<(), SuiteError> {
            if ok {
                Ok(())
            } else {
                Err(SuiteError::InvalidConfig { what })
            }
        }
        rule(self.copy_bytes >= 4096, "copy buffer too small")?;
        rule(self.file_bytes >= 4096, "file too small")?;
        rule(self.sweep_max >= 64 << 10, "sweep too small")?;
        rule(self.stream_total >= 1 << 20, "stream too small")?;
        rule(self.ctx_passes > 0, "no ctx passes")?;
        rule(self.fs_files > 0, "no files")?;
        rule(self.round_trips > 0, "no round trips")?;
        rule(self.disk_ops > 0, "no disk ops")?;
        rule(!self.bench_timeout.is_zero(), "zero benchmark timeout")?;
        rule(self.retry.max_attempts > 0, "zero retry attempts")?;
        Ok(())
    }
}

impl Default for SuiteConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_beats_verbose_whatever_the_combination() {
        assert_eq!(Verbosity::from_flags(false, false), Verbosity::Normal);
        assert_eq!(Verbosity::from_flags(false, true), Verbosity::Verbose);
        assert_eq!(Verbosity::from_flags(true, false), Verbosity::Quiet);
        assert_eq!(Verbosity::from_flags(true, true), Verbosity::Quiet);
        assert!(Verbosity::Quiet < Verbosity::Normal);
        assert!(Verbosity::Normal < Verbosity::Verbose);
    }

    #[test]
    fn both_presets_validate() {
        SuiteConfig::paper().validate().unwrap();
        SuiteConfig::quick().validate().unwrap();
    }

    #[test]
    fn paper_matches_paper_parameters() {
        let c = SuiteConfig::paper();
        assert_eq!(c.copy_bytes, 8 << 20);
        assert_eq!(c.stream_total, 50 << 20);
        assert_eq!(c.ctx_passes, 2000);
        assert_eq!(c.fs_files, 1000);
    }

    #[test]
    fn bad_config_is_an_error_not_a_panic() {
        let mut c = SuiteConfig::quick();
        c.copy_bytes = 16;
        assert_eq!(
            c.validate(),
            Err(SuiteError::InvalidConfig {
                what: "copy buffer too small"
            })
        );
    }

    #[test]
    fn builders_chain() {
        let c = SuiteConfig::quick()
            .with_timeout(Duration::from_secs(7))
            .with_repetitions(5)
            .with_retry(RetryPolicy::on_noise());
        assert_eq!(c.bench_timeout, Duration::from_secs(7));
        assert_eq!(c.options.repetitions, 5);
        assert_eq!(c.retry.max_attempts, 2);
        c.validate().unwrap();
    }

    #[test]
    fn zero_timeout_rejected() {
        let c = SuiteConfig::quick().with_timeout(Duration::ZERO);
        assert!(matches!(
            c.validate(),
            Err(SuiteError::InvalidConfig {
                what: "zero benchmark timeout"
            })
        ));
    }
}
