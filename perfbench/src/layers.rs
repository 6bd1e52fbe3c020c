//! The metrics a run reports: the end-to-end set of an untraced run and
//! the per-layer set of a traced run.
//!
//! Every traced run reports every per-layer metric. A layer the workload
//! makes no call into reads 0: that workload is the layer's bypass.

use crate::harness::{Phase, Report};
use crate::stats::Samples;

pub fn report_end_to_end(report: &mut Report, phase: &Phase, setup_s: &Samples, peak_rss_mb: f64) {
    let totals = &phase.plain;
    report.note_latency("operation latency, net of steal", "ms", &phase.latency_ms);
    report.note_latency("operation latency, wall", "ms", &phase.wall_latency_ms);
    report.note(format!(
        "set-up, net of steal: median {:.4} s of {:?}",
        setup_s.median(),
        setup_s.sorted()
    ));
    report.note(format!(
        "timed phase: {:.3} s wall of which {:.3} s stolen, {:.3} s user + {:.3} s system CPU, \
         {} records ({:.3}/s per wall second), {} bytes written",
        totals.lap.wall_s,
        totals.lap.stolen_s,
        totals.cpu.user_s,
        totals.cpu.system_s,
        totals.records,
        totals.records_per_wall_s(),
        totals.write_bytes
    ));
    report.metric("setup_s", setup_s.median(), "s");
    report.metric("records_per_s", totals.records_per_s(), "1/s");
    report.metric("latency_p50_ms", phase.latency_ms.median(), "ms");
    report.metric("cpu_us_per_record", totals.cpu_us_per_record(), "us");
    report.metric("peak_rss_mb", peak_rss_mb, "MB");
}

/// Per-layer figures a workload measured; the rest stay 0.
#[derive(Debug, Default)]
pub struct Layers {
    pub encode_ms_p50: f64,
    pub encode_share: f64,
    pub submit_us_p50: f64,
    pub drain_ms_p50: f64,
    pub drain_share: f64,
    pub flush_ms_p50: f64,
    pub flush_share: f64,
    pub flushes: u64,
    pub shards_rolled: u64,
    /// Median `HvStore` build, save and open seconds over the set-ups.
    pub store_s: [f64; 3],
    /// Median LOOCV milliseconds on Pima R, Pima M and Sylhet.
    pub loocv_ms: [f64; 3],
    pub loocv_share: f64,
    pub sgd_fit_ms: f64,
    pub sgd_predict_ms: f64,
    pub sgd_share: f64,
}

impl Layers {
    /// Adds every per-layer metric, plus the two measured from the phase
    /// itself: system share of process CPU, and tracing overhead.
    pub fn report(&self, report: &mut Report, phase: &Phase) {
        let traced = &phase.traced;
        let plain = &phase.plain;
        let overhead = 1.0 - traced.records_per_s() / plain.records_per_s();
        report.note(format!(
            "tracing overhead {:.4}: {:.3} net records/s over {} traced steps, {:.3} over {} untraced",
            overhead,
            traced.records_per_s(),
            traced.windows,
            plain.records_per_s(),
            plain.windows
        ));
        let cpu = traced.cpu;
        let write_bytes_per_record = traced.write_bytes as f64 / traced.records as f64;
        let m = [
            ("core.extractor.encode_ms_p50", self.encode_ms_p50, "ms"),
            ("core.extractor.encode_share", self.encode_share, "ratio"),
            ("serve.admission.submit_us_p50", self.submit_us_p50, "us"),
            ("serve.admission.drain_ms_p50", self.drain_ms_p50, "ms"),
            ("serve.admission.drain_share", self.drain_share, "ratio"),
            ("rayon.sys_cpu_share", cpu.system_s / cpu.total_s(), "ratio"),
            ("serve.ingest.flush_ms_p50", self.flush_ms_p50, "ms"),
            ("serve.ingest.flush_share", self.flush_share, "ratio"),
            ("serve.ingest.flushes", self.flushes as f64, "count"),
            (
                "serve.ingest.shards_rolled",
                self.shards_rolled as f64,
                "count",
            ),
            (
                "serve.snapshot.write_bytes_per_record",
                write_bytes_per_record,
                "B/record",
            ),
            ("serve.store.build_s", self.store_s[0], "s"),
            ("serve.store.save_s", self.store_s[1], "s"),
            ("serve.store.open_s", self.store_s[2], "s"),
            ("hdc.loocv.pima_r_ms", self.loocv_ms[0], "ms"),
            ("hdc.loocv.pima_m_ms", self.loocv_ms[1], "ms"),
            ("hdc.loocv.sylhet_ms", self.loocv_ms[2], "ms"),
            ("hdc.loocv.share", self.loocv_share, "ratio"),
            ("ml.sgd.fit_ms", self.sgd_fit_ms, "ms"),
            ("ml.sgd.predict_ms", self.sgd_predict_ms, "ms"),
            ("ml.sgd.share", self.sgd_share, "ratio"),
            ("trace.overhead_share", overhead, "ratio"),
        ];
        for (name, value, unit) in m {
            report.metric(name, value, unit);
        }
    }
}

/// Component-wise median of per-set-up `[build, save, open]` seconds.
pub fn median_store_times(times: &[[f64; 3]]) -> [f64; 3] {
    std::array::from_fn(|i| {
        let mut s = Samples::default();
        for t in times {
            s.push(t[i]);
        }
        s.median()
    })
}
