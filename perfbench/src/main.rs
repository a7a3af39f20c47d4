//! `dps-perfbench`: one run of one benchmark workload.
//!
//! ```sh
//! dps-perfbench --workload table1-sim|broker-ack|broker-fanout --seed N \
//!     --seconds S --trace 0|1 --broker PATH --out-dir DIR \
//!     [--commit C] [--source-digest D] [--smoke]
//! ```
//!
//! `perfbench/run.py` builds this binary and `dps-broker`, then calls it.
//! The last line of standard output is the result: `correct`, `attempted`,
//! `failed` and the metrics, the end-to-end ones untraced (`--trace 0`) or
//! the per-layer ones traced (`--trace 1`). The line before it is the full
//! record (machine, inputs, sample counts), also written under `--out-dir`.

mod live;
mod replay;
mod stats;
mod sys;
mod table1;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::PathBuf;

use crate::stats::summarize;
use crate::trace::{Agg, Tracer};

/// End-to-end metrics and their units; every workload reports all of them.
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ack_p50_us", "us"),
    ("ack_p90_us", "us"),
    ("deliver_p50_us", "us"),
    ("deliver_p90_us", "us"),
    ("pubs_per_s", "1/s"),
    ("cpu_us_per_delivery", "us"),
    ("delivered_ratio", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics and their units. A layer a workload does not cross
/// reports 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("content.match_ns", "ns"),
    ("content.hits_per_query", "count"),
    ("content.insert_ns", "ns"),
    ("sim.step_us", "us"),
    ("sim.step_us_p90", "us"),
    ("sim.msgs_per_step", "count"),
    ("sim.ns_per_msg", "ns"),
    ("sim.dropped", "count"),
    ("overlay.contacts_per_pub", "count"),
    ("overlay.notifies_per_pub", "count"),
    ("overlay.useful_contact_frac", "ratio"),
    ("overlay.quiesce_steps", "count"),
    ("dps.subscribe_us", "us"),
    ("dps.publish_us", "us"),
    ("wire.encode_ns.Publish", "ns"),
    ("wire.encode_ns.Deliver", "ns"),
    ("wire.encode_ns.Ack", "ns"),
    ("wire.decode_ns.Publish", "ns"),
    ("wire.decode_ns.Deliver", "ns"),
    ("wire.decode_ns.Ack", "ns"),
    ("wire.bytes.Publish", "bytes"),
    ("wire.bytes.Deliver", "bytes"),
    ("transport.bytes_per_pub", "bytes"),
    ("broker.pump_us", "us"),
    ("broker.pump_us_p90", "us"),
    ("broker.frames_per_pump", "count"),
    ("broker.deliver_frames_per_pub", "count"),
    ("broker.pump_ns_per_delivery", "ns"),
    ("client.publish_us", "us"),
    ("client.wait_frac", "ratio"),
    ("client.drain_ns_per_delivery", "ns"),
    ("client.credit_frames_per_delivery", "count"),
    ("gen.late_us_p90", "us"),
    ("trace.overhead_frac", "ratio"),
];

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    pub broker: PathBuf,
    pub out_dir: PathBuf,
    commit: String,
    source_digest: String,
}

/// What one run measured and checked.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub e2e: BTreeMap<String, f64>,
    pub layers: BTreeMap<String, f64>,
    /// Counts that must repeat exactly for the same seed and sizes.
    pub deterministic: BTreeMap<String, f64>,
    /// Workload parameters, as JSON literals.
    params: Vec<(&'static str, String)>,
    /// Sample count behind each percentile.
    samples: Vec<(String, usize)>,
    problems: Vec<String>,
}

impl Default for Report {
    fn default() -> Self {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
            deterministic: BTreeMap::new(),
            params: Vec::new(),
            samples: Vec::new(),
            problems: Vec::new(),
        }
    }
}

impl Report {
    pub fn e2e(&mut self, name: &str, v: f64) {
        self.e2e.insert(name.into(), v);
    }

    pub fn layer(&mut self, name: &str, v: f64) {
        self.layers.insert(name.into(), v);
    }

    pub fn det(&mut self, name: &str, v: f64) {
        self.deterministic.insert(name.into(), v);
    }

    /// Median self time of span `span`, in µs, as layer metric `name`.
    pub fn layer_p50_us(&mut self, l: &BTreeMap<&str, Agg>, span: &str, name: &str) {
        let mut s = l
            .get(span)
            .map(|a| a.self_samples_ns.clone())
            .unwrap_or_default();
        let s = summarize(&mut s);
        self.samples(name, s.n);
        self.layer(name, s.p50 / 1e3);
    }

    /// Total self time of span `span` divided by `per`, as layer metric `name`.
    pub fn layer_per(&mut self, l: &BTreeMap<&str, Agg>, span: &str, name: &str, per: f64) {
        let ns = l.get(span).map_or(0.0, |a| a.self_ns);
        self.layer(name, stats::ratio(ns, per));
    }

    pub fn param(&mut self, name: &'static str, v: impl Display) {
        self.params.push((name, v.to_string()));
    }

    pub fn param_str(&mut self, name: &'static str, v: &str) {
        self.params.push((name, json_str(v)));
    }

    pub fn samples(&mut self, name: &str, n: usize) {
        self.samples.push((name.into(), n));
    }

    /// Records a failed output check: the run is not correct.
    pub fn fail(&mut self, why: String) {
        eprintln!("perfbench: check failed: {why}");
        self.correct = false;
        self.problems.push(why);
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "a metric is not a finite number: {v}");
    format!("{v}")
}

fn json_map<'a>(it: impl Iterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = it.map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    format!("{{{}}}", body.join(", "))
}

fn metrics_json(values: &BTreeMap<String, f64>, table: &[(&str, &str)]) -> String {
    json_map(table.iter().map(|(name, unit)| {
        let v = values.get(*name).copied().unwrap_or(0.0);
        (
            *name,
            format!(
                "{{\"value\": {}, \"unit\": {}}}",
                json_num(v),
                json_str(unit)
            ),
        )
    }))
}

fn usage(err: &str) -> ! {
    eprintln!("dps-perfbench: {err}");
    eprintln!(
        "usage: dps-perfbench --workload table1-sim|broker-ack|broker-fanout --seed N \
         --seconds S --trace 0|1 --broker PATH --out-dir DIR [--commit C] \
         [--source-digest D] [--smoke]"
    );
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let mut args = std::env::args().skip(1);
    let mut get = BTreeMap::new();
    let mut smoke = false;
    while let Some(a) = args.next() {
        if a == "--smoke" {
            smoke = true;
            continue;
        }
        let v = args
            .next()
            .unwrap_or_else(|| usage(&format!("{a} needs a value")));
        get.insert(a, v);
    }
    let mut req = |k: &str| {
        get.remove(k)
            .unwrap_or_else(|| usage(&format!("{k} is required")))
    };
    let workload = req("--workload");
    let num = |v: String, k: &str| -> u64 {
        v.parse()
            .unwrap_or_else(|_| usage(&format!("{k} must be a whole number")))
    };
    let seed = num(req("--seed"), "--seed");
    let seconds = num(req("--seconds"), "--seconds");
    let trace = match req("--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage("--trace must be 0 or 1"),
    };
    let broker = PathBuf::from(req("--broker"));
    let out_dir = PathBuf::from(req("--out-dir"));
    let commit = get.remove("--commit").unwrap_or_else(|| "unknown".into());
    let source_digest = get
        .remove("--source-digest")
        .unwrap_or_else(|| "unknown".into());
    if let Some(k) = get.keys().next() {
        usage(&format!("unknown argument {k}"));
    }
    if !["table1-sim", "broker-ack", "broker-fanout"].contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload:?}"));
    }
    if seconds == 0 {
        usage("--seconds must be at least 1");
    }
    Opts {
        workload,
        seed,
        seconds,
        trace,
        smoke,
        broker,
        out_dir,
        commit,
        source_digest,
    }
}

fn main() {
    let opts = parse_args();
    std::fs::create_dir_all(&opts.out_dir).expect("create the output directory");
    let mut tracer = Tracer::new(opts.trace);
    let mut report = match opts.workload.as_str() {
        "table1-sim" => table1::run(&opts, &mut tracer),
        "broker-ack" => live::run(&opts, &mut tracer, live::Kind::Ack),
        _ => live::run(&opts, &mut tracer, live::Kind::Fanout),
    };
    if report.failed > 0 {
        report.fail(format!(
            "{} of {} operations failed",
            report.failed, report.attempted
        ));
    }
    let stem = format!(
        "{}-seed{}-trace{}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    );
    let mut layer_self = String::from("{}");
    if opts.trace {
        let path = opts.out_dir.join(format!("{stem}.spans.csv"));
        tracer.write(&path).expect("write the span file");
        layer_self = json_map(tracer.layers().into_iter().map(|(name, a)| {
            (
                name,
                format!(
                    "{{\"spans\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
                    a.count,
                    json_num(a.total_ns / 1e6),
                    json_num(a.self_ns / 1e6)
                ),
            )
        }));
    }

    if !opts.trace {
        for (name, _) in E2E {
            let v = report.e2e.get(*name).copied().unwrap_or(0.0);
            if v <= 0.0 {
                report.fail(format!("end-to-end metric {name} is {v}"));
            }
        }
    }
    let (metrics, table) = if opts.trace {
        (&report.layers, LAYERS)
    } else {
        (&report.e2e, E2E)
    };
    let m = sys::machine();
    let record = json_map(
        [
            ("workload", json_str(&opts.workload)),
            ("seed", opts.seed.to_string()),
            ("seconds", opts.seconds.to_string()),
            ("trace", opts.trace.to_string()),
            ("smoke", opts.smoke.to_string()),
            ("commit", json_str(&opts.commit)),
            ("source_digest", json_str(&opts.source_digest)),
            (
                "machine",
                json_map(
                    [
                        ("nproc", m.nproc.to_string()),
                        ("cpu_model", json_str(&m.cpu_model)),
                        ("kernel", json_str(&m.kernel)),
                    ]
                    .into_iter(),
                ),
            ),
            (
                "params",
                json_map(report.params.iter().map(|(k, v)| (*k, v.clone()))),
            ),
            (
                "samples",
                json_map(
                    report
                        .samples
                        .iter()
                        .map(|(k, n)| (k.as_str(), n.to_string())),
                ),
            ),
            (
                "deterministic",
                json_map(
                    report
                        .deterministic
                        .iter()
                        .map(|(k, v)| (k.as_str(), json_num(*v))),
                ),
            ),
            ("spans", tracer.span_count().to_string()),
            ("layer_self_time", layer_self),
            (
                "problems",
                format!(
                    "[{}]",
                    report
                        .problems
                        .iter()
                        .map(|p| json_str(p))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            ),
            ("metrics", metrics_json(metrics, table)),
        ]
        .into_iter(),
    );
    std::fs::write(opts.out_dir.join(format!("{stem}.json")), &record)
        .expect("write the record file");
    println!("{record}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        metrics_json(metrics, table)
    );
}
