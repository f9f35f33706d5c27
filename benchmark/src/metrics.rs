//! The metric catalogue: names, units and directions, in one place. The
//! root `BENCHMARK.json` repeats it for the driver; a unit test keeps the two
//! in step.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    pub fn parse(label: &str) -> Option<Better> {
        match label {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }

    /// By what share of `base` the value `now` is worse (negative = better).
    pub fn worsening(self, base: f64, now: f64) -> f64 {
        match self {
            Better::Higher => (base - now) / base,
            Better::Lower => (now - base) / base,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening of the median that counts as a regression.
    pub bound: f64,
}

/// The gated metrics, identical on every workload. The bounds are what this
/// 2-vCPU VM lets a number repeat to (README, "Bounds"): over ten runs the
/// quartile spread of `ops_per_s` and `p50_us` reached 16 % on the CPU-bound
/// rows. No tail percentile repeats here — p75 to p99 spread 15–26 % on
/// `tx-long-*` — so `p99_us` is an ungated layer metric, not a gate.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The ungated layer metrics of the traced run. Every workload reports all of
/// them; one that does not apply to a workload (no wire, no WAL, no tasks)
/// reads 0 there.
pub const PER_LAYER: [PerLayer; 28] = [
    layer("failed_frac", "ratio", Better::Lower),
    layer("p99_us", "us", Better::Lower),
    layer("gen_idle_frac", "ratio", Better::Higher),
    layer("traced_ops_per_s", "1/s", Better::Higher),
    layer("txobs.trace_overhead_frac", "ratio", Better::Lower),
    layer("txnet.codec_ns_per_req", "ns", Better::Lower),
    layer("txnet.reqs_per_round", "count", Better::Higher),
    layer("txnet.wire_bytes_per_op", "B", Better::Lower),
    layer("txnet.protocol_errors", "count", Better::Lower),
    layer("txnet.residual_us", "us", Better::Lower),
    layer("txkv.plan_ns_per_round", "ns", Better::Lower),
    layer("txkv.record_encode_ns", "ns", Better::Lower),
    layer("txkv.exec_us_per_round", "us", Better::Lower),
    layer("txkv.exec_seqref_us_per_round", "us", Better::Lower),
    layer("txlog.fsyncs_per_s", "1/s", Better::Lower),
    layer("txlog.records_per_fsync", "count", Better::Higher),
    layer("txlog.fsync_ms_mean", "ms", Better::Lower),
    layer("txlog.wal_bytes_per_op", "B", Better::Lower),
    layer("txlog.append_wait_us", "us", Better::Lower),
    layer("txlog.crc_mb_per_s", "MB/s", Better::Higher),
    layer("stm.abort_ratio", "ratio", Better::Lower),
    layer("stm.reads_per_commit", "count", Better::Lower),
    layer("stm.writes_per_commit", "count", Better::Lower),
    layer("stm.validations_per_commit", "count", Better::Lower),
    layer("tlstm.task_useful_ratio", "ratio", Better::Higher),
    layer("tlstm.dispatch_us", "us", Better::Lower),
    layer("swisstm.empty_tx_ns", "ns", Better::Lower),
    layer("txmem.lock_lookup_ns", "ns", Better::Lower),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::rep::Workload;

    #[test]
    fn worsening_follows_the_direction() {
        assert!((Better::Higher.worsening(100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((Better::Lower.worsening(100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((Better::Lower.worsening(100.0, 125.0) - 0.25).abs() < 1e-12);
    }

    /// `BENCHMARK.json` is what the driver reads; this catalogue is what the
    /// binary prints. They must describe the same benchmark.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_owned())
                .collect()
        };
        assert_eq!(
            names("workloads"),
            Workload::ALL.map(|w| w.name().to_owned()).to_vec()
        );
        for (entry, workload) in doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(Workload::ALL)
        {
            assert_eq!(
                entry.get("why").and_then(Json::as_str),
                Some(workload.why())
            );
        }
        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, metric) in e2e.iter().zip(END_TO_END) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(metric.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(metric.unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(metric.better.label())
            );
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                Some(metric.bound)
            );
        }
        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, metric) in layers.iter().zip(PER_LAYER) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(metric.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(metric.unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(metric.better.label())
            );
        }
        let seconds = doc.get("run_seconds").and_then(Json::as_u64).unwrap();
        assert!((1..=60).contains(&seconds));
    }
}
