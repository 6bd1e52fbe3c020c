//! What every workload shares: arguments, the measured windows of the
//! timed phase, set-up timing, and the report printed at the end.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::procfs::{self, CpuTimes, HostTicks};
use crate::stats::Samples;
use crate::trace::Recorder;

pub type Fallible<T> = Result<T, Box<dyn std::error::Error>>;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where traces and the run's scratch snapshots go.
    pub out: PathBuf,
}

impl Args {
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut out = PathBuf::from("perfbench/out");
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err(bad("expected a positive number"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    });
                }
                "--out" => out = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
            out,
        })
    }
}

/// A scratch directory for one run's snapshots, removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(out: &Path, workload: &str) -> Fallible<Self> {
        let dir = out.join(format!("work-{workload}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Elapsed wall time, and how much of it the host stole.
///
/// On a shared virtual machine the hypervisor runs other guests on this
/// machine's vCPUs; `/proc/stat` counts that time per vCPU as steal. A
/// measured interval cannot end before its vCPUs have run, so the steal of
/// the most-stolen vCPU over the interval is time the host, not the
/// program, added to it. The wall-clock metrics take it out: steal is set
/// by other tenants, and on a small shared host it moves wall time by tens
/// of percent from one minute to the next.
pub struct Stopwatch {
    t0: Instant,
    host0: HostTicks,
}

/// One reading of a [`Stopwatch`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Lap {
    pub wall_s: f64,
    /// Steal of the most-stolen vCPU, at most [`MAX_STOLEN_SHARE`] of the
    /// wall time (steal is counted in 10 ms ticks).
    pub stolen_s: f64,
}

/// Cap on the share of an interval counted as stolen.
const MAX_STOLEN_SHARE: f64 = 0.9;

impl Lap {
    /// Wall time with the stolen time taken out.
    pub fn net_s(self) -> f64 {
        self.wall_s - self.stolen_s
    }
}

impl Stopwatch {
    pub fn start() -> Self {
        let host0 = procfs::host_ticks();
        Self {
            t0: Instant::now(),
            host0,
        }
    }

    pub fn lap(&self) -> Lap {
        let wall_s = self.t0.elapsed().as_secs_f64();
        let stolen_s = procfs::host_ticks().max_stolen_s_since(&self.host0);
        Lap {
            wall_s,
            stolen_s: stolen_s.min(wall_s * MAX_STOLEN_SHARE),
        }
    }

    /// Share of all vCPU time the host stole since the start.
    pub fn steal_share(&self) -> f64 {
        procfs::host_ticks().steal_share_since(&self.host0)
    }
}

/// Runs `setup` [`SETUPS`] times, keeping the last state, and returns the
/// net (steal-free) seconds of each. Each set-up is timed from the end of
/// the previous one, and the first from `process_start`, so start-up costs
/// land in the first sample and the median discounts them. The previous
/// state is dropped before the next set-up begins.
pub fn repeat_setup<S>(
    process_start: Stopwatch,
    mut setup: impl FnMut() -> Fallible<S>,
) -> Fallible<(S, Samples)> {
    let mut times = Samples::default();
    let mut state = None;
    let mut clock = process_start;
    for _ in 0..SETUPS {
        drop(state.take());
        state = Some(setup()?);
        times.push(clock.lap().net_s());
        clock = Stopwatch::start();
    }
    Ok((state.expect("SETUPS > 0"), times))
}

/// Wall time, stolen time, process CPU time, bytes written and records
/// completed, summed over measured windows.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub lap: Lap,
    pub cpu: CpuTimes,
    pub write_bytes: u64,
    pub records: u64,
    pub windows: u64,
}

impl Totals {
    /// Records per net (steal-free) second.
    pub fn records_per_s(&self) -> f64 {
        self.records as f64 / self.lap.net_s()
    }

    /// Records per wall second, steal included.
    pub fn records_per_wall_s(&self) -> f64 {
        self.records as f64 / self.lap.wall_s
    }

    pub fn cpu_us_per_record(&self) -> f64 {
        self.cpu.total_s() * 1e6 / self.records as f64
    }
}

/// A workload's timed phase, one step at a time.
pub trait Steps {
    /// Untimed work before each step, such as resetting state the previous
    /// step changed.
    fn prepare(&mut self) -> Fallible<()> {
        Ok(())
    }

    /// Runs step `index`, recording spans into `rec` when `traced` and
    /// pushing the wall milliseconds of each operation into `op_ms`;
    /// returns the records the step completed.
    fn step(
        &mut self,
        rec: &mut Recorder,
        index: u64,
        traced: bool,
        op_ms: &mut Vec<f64>,
    ) -> Fallible<u64>;
}

/// The measured totals of a timed phase.
///
/// The phase runs whole steps, each one measured window, until `seconds`
/// of measured wall time have passed. An operation's latency is scaled by
/// its step's net share of wall time, taking out the host's steal as the
/// totals do. In a traced run odd-numbered steps are traced and even ones
/// are not, so the tracing overhead is measured against untraced steps
/// interleaved with them under the same host conditions.
#[derive(Default)]
pub struct Phase {
    pub plain: Totals,
    pub traced: Totals,
    /// Net latency of each operation in untraced steps.
    pub latency_ms: Samples,
    /// Wall latency of the same operations, steal included.
    pub wall_latency_ms: Samples,
    pub host_steal_share: f64,
}

impl Phase {
    pub fn run(
        seconds: f64,
        trace: bool,
        rec: &mut Recorder,
        steps: &mut impl Steps,
    ) -> Fallible<Self> {
        let phase_clock = Stopwatch::start();
        let mut phase = Self::default();
        let mut op_ms = Vec::new();
        let mut index = 0u64;
        // A traced run needs at least one step of each kind to compare.
        while phase.plain.lap.wall_s + phase.traced.lap.wall_s < seconds
            || (trace && phase.traced.windows == 0)
        {
            let tracing = trace && index % 2 == 1;
            steps.prepare()?;
            op_ms.clear();
            rec.set_enabled(tracing);
            let cpu0 = procfs::process_cpu();
            let wchar0 = procfs::write_chars();
            let clock = Stopwatch::start();
            let records = steps.step(rec, index, tracing, &mut op_ms)?;
            let lap = clock.lap();
            let cpu = procfs::process_cpu().since(cpu0);
            let write_bytes = procfs::write_chars() - wchar0;
            rec.set_enabled(false);

            let totals = if tracing {
                &mut phase.traced
            } else {
                &mut phase.plain
            };
            totals.lap.wall_s += lap.wall_s;
            totals.lap.stolen_s += lap.stolen_s;
            totals.cpu = totals.cpu.add(cpu);
            totals.write_bytes += write_bytes;
            totals.records += records;
            totals.windows += 1;
            if !tracing {
                let net_share = lap.net_s() / lap.wall_s;
                for &ms in &op_ms {
                    phase.latency_ms.push(ms * net_share);
                    phase.wall_latency_ms.push(ms);
                }
            }
            index += 1;
        }
        phase.host_steal_share = phase_clock.steal_share();
        Ok(phase)
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run prints: info lines for people, then the one-line result.
#[derive(Debug, Default)]
pub struct Report {
    pub checks: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Prints a percentile line for a timing: p50 and p99 with the sample
    /// count, so a reader can tell how many samples the p99 rests on.
    pub fn note_latency(&mut self, what: &str, unit: &str, samples: &Samples) {
        self.note(format!(
            "{what}: p50 {:.4} {unit}, p99 {:.4} {unit}, n = {}",
            samples.median(),
            samples.percentile(99.0),
            samples.len()
        ));
    }

    pub fn print(&self) {
        for line in &self.notes {
            println!("{line}");
        }
        for (what, ok) in &self.checks {
            println!("check {}: {what}", if *ok { "ok" } else { "FAILED" });
        }
        for m in &self.metrics {
            println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
        println!(
            "operations attempted {} failed {}",
            self.attempted, self.failed
        );
        println!("{}", self.json());
    }

    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                metrics,
                "{}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                if i == 0 { "" } else { ", " },
                m.name,
                m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn parses_the_command_line_flags() {
        let a = parse(&[
            "--workload",
            "query",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("query", 7, 20.0, true)
        );
    }

    #[test]
    fn rejects_bad_or_missing_flags() {
        assert!(parse(&["--workload", "query", "--seed", "7"]).is_err());
        assert!(parse(&["--workload", "q", "--seed", "x", "--seconds", "1"]).is_err());
        assert!(parse(&["--workload", "q", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(parse(&[
            "--workload",
            "q",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(parse(&[
            "--workload",
            "q",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--bogus",
            "1"
        ])
        .is_err());
        assert!(parse(&["--workload"]).is_err());
    }

    #[test]
    fn json_has_exactly_the_four_keys_and_full_precision_values() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("latency_p50_ms", 1.234_567_891_2, "ms");
        r.metric("setup_s", 0.5, "s");
        r.check("oracle", true);
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.2345678912, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        r.check("broken", false);
        assert!(!r.correct());
    }
}
