//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <sweep-cold|serve-warm|serve-mixed> --seed <n>
//!           --seconds <s> --trace <0|1> --server-bin <tetris> --scratch <dir>
//!           [--spans-out <file>]
//! perfbench --write-expected <file>
//! ```
//!
//! Normally started through `perfbench/run.py`, which builds both binaries
//! first. With `--trace 0` the last stdout line reports every end-to-end
//! metric; with `--trace 1` every per-layer metric, from a separate traced
//! run. Wrong outputs print the result with `"correct": false` and exit 1;
//! a broken measurement (too few tail samples, a partial sweep pass, more
//! busy threads than cores) exits 2 without a result. See `README.md`.

mod calib;
mod client;
mod jobs;
mod layers;
mod serve;
mod spans;
mod stats;
mod sweep;

use std::path::PathBuf;
use std::process::ExitCode;

/// Default workload seed.
pub const DEFAULT_SEED: u64 = 1;

/// Run-wide settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub server_bin: PathBuf,
    pub scratch: PathBuf,
    pub nproc: usize,
    pub expected: jobs::Expected,
    /// Where the traced run writes its spans (JSON lines).
    pub spans_out: Option<PathBuf>,
}

impl Ctx {
    pub fn write_spans(&self, rec: &spans::Recorder) -> Result<(), String> {
        match &self.spans_out {
            Some(path) => rec
                .write_jsonl(path)
                .map_err(|e| format!("{}: {e}", path.display())),
            None => Ok(()),
        }
    }
}

/// The result object of one run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Wrong outputs; any entry makes the run incorrect.
    pub problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".into()
                };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The end-to-end figures a workload measured, in host time. They are
/// reported in reference-host time (see `calib`).
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    /// Timed window minus quiet windows, seconds.
    pub busy_window_s: f64,
    pub jobs_ok: u64,
    pub jobs_attempted: u64,
    pub latencies_ms: Vec<f64>,
    /// Requests attempted (failed ones included).
    pub requests: u64,
    pub slo_ms: f64,
    /// An open loop's window follows a wall-clock schedule, so its rates
    /// are not rescaled.
    pub open_loop: bool,
    pub quality: jobs::Quality,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// Writes every end-to-end metric. `cal` calibrates the timed window,
    /// `setup_cal` the set-ups (one quiet window after each).
    pub fn report(
        &self,
        r: &mut Report,
        cal: &calib::Calibration,
        setup_cal: &calib::Calibration,
    ) -> Result<(), String> {
        let k = cal.scale();
        eprintln!(
            "perfbench: kernel median {:.4} ms over {} samples, reference-host scale {k:.4}",
            cal.median_ms(),
            cal.samples()
        );
        let lat: Vec<f64> = self.latencies_ms.iter().map(|l| l * k).collect();
        let window = self.busy_window_s * if self.open_loop { 1.0 } else { k };
        let within = lat.iter().filter(|&&l| l <= self.slo_ms).count();
        r.metric(
            "setup_s",
            stats::median(&self.setup_s) * setup_cal.scale(),
            "s",
        );
        r.metric("jobs_per_s", self.jobs_ok as f64 / window, "1/s");
        r.metric(
            "req_p50_ms",
            stats::percentile(&lat, 0.5, "req_p50_ms")?,
            "ms",
        );
        r.metric(
            "req_p90_ms",
            stats::percentile(&lat, 0.9, "req_p90_ms")?,
            "ms",
        );
        r.metric("req_per_s", lat.len() as f64 / window, "1/s");
        r.metric(
            "slo_frac",
            within as f64 / self.requests.max(1) as f64,
            "frac",
        );
        r.metric(
            "ok_frac",
            self.jobs_ok as f64 / self.jobs_attempted.max(1) as f64,
            "frac",
        );
        r.metric("cnots_total", self.quality.cnots as f64, "count");
        r.metric("depth_total", self.quality.depth as f64, "count");
        r.metric("duration_total", self.quality.duration as f64, "count");
        r.metric("cnot_ratio_vs_ph", self.quality.ratio_vs_ph, "ratio");
        r.metric("peak_rss_mb", self.peak_rss_mb, "MiB");
        Ok(())
    }
}

/// splitmix64: the benchmark's seeded generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xd134_2543_de82_ef95))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Peak resident set of this process, in MiB.
pub fn own_peak_rss_mb() -> f64 {
    client::peak_rss_mb("/proc/self/status").unwrap_or(f64::NAN)
}

fn parse_args() -> Result<(Ctx, String, Option<PathBuf>), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let num = |flag: &str, default: f64| -> Result<f64, String> {
        value(flag).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("bad {flag} {v}"))
        })
    };
    let ctx = Ctx {
        seed: value("--seed").map_or(Ok(DEFAULT_SEED), |v| {
            v.parse().map_err(|_| format!("bad --seed {v}"))
        })?,
        seconds: num("--seconds", 10.0)?,
        trace: num("--trace", 0.0)? != 0.0,
        server_bin: PathBuf::from(
            value("--server-bin").unwrap_or_else(|| "target/release/tetris".into()),
        ),
        scratch: PathBuf::from(
            value("--scratch").unwrap_or_else(|| ".bench_build/perfbench-tmp".into()),
        ),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        expected: jobs::Expected::load(),
        spans_out: value("--spans-out").map(PathBuf::from),
    };
    let workload = value("--workload").unwrap_or_default();
    Ok((ctx, workload, value("--write-expected").map(PathBuf::from)))
}

fn main() -> ExitCode {
    let (ctx, workload, write_expected) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = write_expected {
        return match jobs::write_expected(&path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let result = jobs::check_sweep_names().and_then(|()| {
        std::fs::create_dir_all(&ctx.scratch).map_err(|e| format!("scratch dir: {e}"))?;
        match workload.as_str() {
            "sweep-cold" => sweep::run(&ctx),
            "serve-warm" => serve::run(&ctx, serve::Kind::Warm),
            "serve-mixed" => serve::run(&ctx, serve::Kind::Mixed),
            other => Err(format!("unknown --workload `{other}`")),
        }
    });
    let _ = std::fs::remove_dir(&ctx.scratch);
    match result {
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
        Ok(mut report) => {
            // Every run also checks the fixed oracle set, whatever the
            // workload.
            report.problems.extend(jobs::oracle_check());
            for p in report.problems.iter().take(20) {
                eprintln!("perfbench: wrong output: {p}");
            }
            println!("{}", report.json());
            if report.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
    }
}
