//! `table1-sim`: the paper's Table 1 protocol through the `DpsNetwork`
//! facade on a sharded simulation.
//!
//! Per preset (stock exchange, multiplayer game, alert monitoring, in that
//! order) and on each of two independent overlays: one paced subscription
//! per node, quiescence, a settle period (all of which is set-up), then
//! paced publications and a fixed drain (the measured window). Generic traversal, leader communication and the
//! explicit join rule, as in the paper's evaluation.
//!
//! The simulator works in steps, so its figures are counted in steps and
//! priced at the median wall time of a step of the same preset's window:
//! `pubs_per_s` is publications over window steps times that median, and a
//! delivery's latency is its notify step minus its publish step, times that
//! median. Set-up steps are priced the same way. `ack_*` is the wall time of
//! the `try_publish` call itself.

use std::time::Instant;

use dps::{CommKind, DpsConfig, DpsNetwork, JoinRule, MsgClass, PubId, SharedEvent, SharedFilter};
use dps_workload::Workload;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{ratio, summarize};
use crate::trace::Tracer;
use crate::{replay, sys, Opts, Report};

/// Subscriptions issued per simulation step during set-up.
const SUB_RATE: usize = 8;
/// Publications issued per simulation step in the measured window.
const EV_RATE: usize = 4;
/// Steps run after the last publication so disseminations finish.
const DRAIN_STEPS: u64 = 150;
/// Cap on the steps spent waiting for every subscription to be placed.
const QUIESCE_MAX: u64 = 4000;
/// Independent overlays per preset, their results pooled: hop counts, and so
/// latency and delivery, vary by about ±10% with the overlay a seed builds,
/// and four overlays halve that spread against one.
const NETWORKS: u64 = 4;
/// Publications per second of `--seconds`, summed over the three presets:
/// sized so the measured windows take about `--seconds` on a 2-CPU box
/// while the publication count stays a pure function of the arguments.
const PUBS_PER_SECOND: usize = 800;

fn presets() -> [(&'static str, Workload); 3] {
    [
        ("stock", Workload::stock_exchange()),
        ("game", Workload::multiplayer_game()),
        ("alert", Workload::alert_monitoring()),
    ]
}

#[derive(Default)]
struct Totals {
    setup_s: f64,
    ack_us: Vec<f64>,
    deliver_us: Vec<f64>,
    /// Window time at the median step cost, and as the wall clock saw it.
    window_s: f64,
    wall_s: f64,
    cpu_s: f64,
    pubs: usize,
    expected: usize,
    delivered: usize,
    contacts: usize,
    notifies: usize,
    quiesce_steps: u64,
    steps: u64,
    msgs: u64,
    dropped: u64,
    /// Step wall times (µs) in untraced and traced slices of the windows.
    step_us_untraced: Vec<f64>,
    step_us_traced: Vec<f64>,
    match_hits: usize,
    match_queries: usize,
    failed: u64,
    attempted: u64,
    per_preset: Vec<String>,
    oracle_mismatch: Vec<String>,
}

pub fn run(opts: &Opts, tracer: &mut Tracer) -> Report {
    let nodes = if opts.smoke { 120 } else { 1000 };
    let shards = sys::nproc();
    let pubs_per_preset = (opts.seconds as usize * PUBS_PER_SECOND / 3).max(EV_RATE);
    let mut t = Totals::default();
    for (i, (name, w)) in presets().into_iter().enumerate() {
        for k in 0..NETWORKS {
            let index = i as u64 * NETWORKS + k;
            let pubs = pubs_per_preset / NETWORKS as usize;
            run_preset(opts, tracer, &mut t, name, &w, index, nodes, shards, pubs);
            // The overlays are independent runs: without this, how much of a
            // finished one the two shard threads' heaps keep resident varies
            // from run to run, and moved `peak_rss_mib` by up to 0.16.
            sys::release_free_memory();
        }
    }

    let mut r = Report::default();
    r.param("nodes_per_preset", nodes);
    r.param("shards", shards);
    r.param("networks_per_preset", NETWORKS);
    r.param("pubs_per_preset", pubs_per_preset);
    r.param("sub_rate_per_step", SUB_RATE);
    r.param("pub_rate_per_step", EV_RATE);
    r.param("drain_steps", DRAIN_STEPS);
    r.param_str(
        "config",
        "generic traversal, leader communication, explicit join rule",
    );
    r.param_str("presets", &t.per_preset.join("; "));
    r.param("window_wall_s", t.wall_s);
    r.param("window_at_median_step_s", t.window_s);

    let ack = summarize(&mut t.ack_us);
    let deliver = summarize(&mut t.deliver_us);
    r.samples("ack", ack.n);
    r.samples("deliver", deliver.n);
    r.e2e("setup_s", t.setup_s);
    r.e2e("ack_p50_us", ack.p50);
    r.e2e("ack_p90_us", ack.p90);
    r.e2e("deliver_p50_us", deliver.p50);
    r.e2e("deliver_p90_us", deliver.p90);
    r.e2e("pubs_per_s", t.pubs as f64 / t.window_s);
    r.e2e(
        "cpu_us_per_delivery",
        1e6 * ratio(t.cpu_s, t.delivered as f64),
    );
    r.e2e(
        "delivered_ratio",
        ratio(t.delivered as f64, t.expected as f64),
    );
    r.e2e("peak_rss_mib", sys::peak_rss_mib(None));

    // Deterministic counts: a pure function of the seed and sizes.
    let pubs = t.pubs as f64;
    r.det("delivered_pairs", t.delivered as f64);
    r.det("expected_pairs", t.expected as f64);
    r.layer("overlay.contacts_per_pub", ratio(t.contacts as f64, pubs));
    r.layer("overlay.notifies_per_pub", ratio(t.notifies as f64, pubs));
    r.layer(
        "overlay.useful_contact_frac",
        ratio(t.notifies as f64, t.contacts as f64),
    );
    r.layer("overlay.quiesce_steps", t.quiesce_steps as f64);
    let msgs_per_step = ratio(t.msgs as f64, t.steps as f64);
    r.layer("sim.msgs_per_step", msgs_per_step);
    r.layer("sim.dropped", t.dropped as f64);
    r.layer(
        "content.hits_per_query",
        ratio(t.match_hits as f64, t.match_queries as f64),
    );
    for k in [
        "overlay.contacts_per_pub",
        "overlay.notifies_per_pub",
        "overlay.quiesce_steps",
        "sim.msgs_per_step",
        "content.hits_per_query",
    ] {
        r.det(k, r.layers[k]);
    }

    if tracer.enabled() {
        let l = tracer.layers();
        let mut step = l
            .get("sim.step")
            .map(|a| a.self_samples_ns.clone())
            .unwrap_or_default();
        let step = summarize(&mut step);
        r.samples("sim.step", step.n);
        r.layer("sim.step_us", step.p50 / 1e3);
        r.layer("sim.step_us_p90", step.p90 / 1e3);
        r.layer("sim.ns_per_msg", ratio(step.mean, msgs_per_step));
        r.layer_p50_us(&l, "dps.subscribe", "dps.subscribe_us");
        r.layer_p50_us(&l, "dps.publish", "dps.publish_us");
        let inserted = (nodes * 3) as f64 * NETWORKS as f64;
        r.layer_per(&l, "content.insert", "content.insert_ns", inserted);
        r.layer_per(
            &l,
            "content.match",
            "content.match_ns",
            t.match_queries as f64,
        );
        let untraced = summarize(&mut t.step_us_untraced).mean;
        let traced = summarize(&mut t.step_us_traced).mean;
        r.layer("trace.overhead_frac", ratio(traced - untraced, untraced));
    }

    r.attempted = t.attempted;
    r.failed = t.failed;
    for m in t.oracle_mismatch.drain(..) {
        r.fail(m);
    }
    if t.dropped != 0 {
        r.fail(format!(
            "{} messages dropped in a fault-free run",
            t.dropped
        ));
    }
    if t.delivered == 0 || t.delivered > t.expected {
        r.fail(format!(
            "delivered {} of {} expected pairs",
            t.delivered, t.expected
        ));
    }
    r
}

#[allow(clippy::too_many_arguments)]
fn run_preset(
    opts: &Opts,
    tracer: &mut Tracer,
    t: &mut Totals,
    name: &str,
    w: &Workload,
    index: u64,
    nodes: usize,
    shards: usize,
    n_pubs: usize,
) {
    // Inputs first, outside every timer: the program only sees them.
    let mut rng = StdRng::seed_from_u64(opts.seed.wrapping_mul(0x9e37_79b9).wrapping_add(index));
    let filters: Vec<SharedFilter> = (0..nodes)
        .map(|_| w.subscription(&mut rng).into())
        .collect();
    let events: Vec<SharedEvent> = (0..n_pubs).map(|_| w.event(&mut rng).into()).collect();
    let publishers: Vec<usize> = (0..n_pubs).map(|_| rng.random_range(0..nodes)).collect();

    let mut cfg = DpsConfig::named(dps::TraversalKind::Generic, CommKind::Leader);
    cfg.join_rule = JoinRule::Explicit;

    // ---- set-up: population, paced subscriptions, quiescence, settle ----
    tracer.record_all();
    let setup_start = Instant::now();
    let mut setup_steps: Vec<f64> = Vec::new();
    let mut step = |net: &mut DpsNetwork| {
        let t0 = Instant::now();
        net.run(1);
        setup_steps.push(t0.elapsed().as_secs_f64());
    };
    let mut net = DpsNetwork::new_sharded(cfg, opts.seed ^ (0x5bd1_e995 + index), shards);
    let ids = net.add_nodes(nodes);
    for _ in 0..30 {
        step(&mut net);
    }
    for batch in ids.chunks(SUB_RATE).zip(filters.chunks(SUB_RATE)) {
        for (node, f) in batch.0.iter().zip(batch.1) {
            t.attempted += 1;
            let span = tracer.begin("dps.subscribe", 0);
            let out = net.try_subscribe(*node, f.clone());
            tracer.end(span);
            if out.is_err() {
                t.failed += 1;
            }
        }
        step(&mut net);
    }
    // `DpsNetwork::quiesce`, one timed step at a time.
    let mut quiesce = 0;
    while net.pending_subscriptions() > 0 && quiesce < QUIESCE_MAX {
        step(&mut net);
        quiesce += 1;
    }
    t.quiesce_steps += quiesce;
    for _ in 0..120 {
        step(&mut net);
    }
    // Steps priced at their median, as in the window; the rest at wall time.
    let wall = setup_start.elapsed().as_secs_f64();
    let stepping: f64 = setup_steps.iter().sum();
    t.setup_s += wall - stepping + setup_steps.len() as f64 * crate::stats::median(&setup_steps);

    // ---- measured window: paced publications, then the drain ----
    let m0 = net.metrics();
    let received0: u64 = MsgClass::ALL.iter().map(|c| m0.total_received(*c)).sum();
    let step0 = net.sim().now();
    // (publication, publish step, event index)
    let mut pubs: Vec<(PubId, u64, usize)> = Vec::with_capacity(n_pubs);
    let mut step_us: Vec<f64> = Vec::new();
    let acks_before = t.ack_us.len();
    let cpu0 = sys::cpu_seconds(None);
    let start = Instant::now();
    let mut next = 0;
    let total_steps = n_pubs.div_ceil(EV_RATE) as u64 + DRAIN_STEPS;
    for _ in 0..total_steps {
        let step_start = Instant::now();
        let traced = tracer.follow_slices(start, step_start);
        for _ in 0..EV_RATE {
            if next == n_pubs {
                break;
            }
            t.attempted += 1;
            let at = Instant::now();
            let span = tracer.begin("dps.publish", next as u64);
            let out = net.try_publish(ids[publishers[next]], events[next].clone());
            tracer.end(span);
            t.ack_us.push(at.elapsed().as_secs_f64() * 1e6);
            match out {
                Ok(id) => pubs.push((id, net.sim().now(), next)),
                Err(_) => t.failed += 1,
            }
            next += 1;
        }
        let s0 = Instant::now();
        let span = tracer.begin("sim.step", 0);
        net.run(1);
        tracer.end(span);
        let us = s0.elapsed().as_secs_f64() * 1e6;
        step_us.push(us);
        if traced {
            t.step_us_traced.push(us);
        } else {
            t.step_us_untraced.push(us);
        }
    }
    t.wall_s += start.elapsed().as_secs_f64();
    t.cpu_s += sys::cpu_seconds(None) - cpu0;
    // Steps are the simulator's unit of work and of latency; their median
    // wall time is what one costs on this machine, robust to the stalls a
    // shared host inflicts on a few of them. The publish calls between steps
    // count at their wall time.
    let step_median_us = crate::stats::median(&step_us);
    let publishing_us: f64 = t.ack_us[acks_before..].iter().sum();
    t.window_s += (publishing_us + step_us.len() as f64 * step_median_us) / 1e6;
    tracer.record_all();

    // ---- accounting (outside the timers) ----
    let m1 = net.metrics();
    let received1: u64 = MsgClass::ALL.iter().map(|c| m1.total_received(*c)).sum();
    t.msgs += received1 - received0;
    t.steps += net.sim().now() - step0;
    t.dropped += m1.total_dropped();
    t.contacts += net.sink().total_contacts();
    t.notifies += net.sink().total_notifies();
    t.pubs += pubs.len();
    // Expected pairs from the benchmark's own matching: every node is alive
    // and holds exactly the one filter it subscribed.
    let (mut exp, mut del) = (0usize, 0usize);
    for &(id, at_step, i) in &pubs {
        for (node, f) in ids.iter().zip(&filters) {
            if !f.matches(&events[i]) {
                continue;
            }
            exp += 1;
            if let Some(step) = net.sink().notify_step(id, *node) {
                del += 1;
                let hops = step.saturating_sub(at_step) as f64;
                t.deliver_us.push(hops * step_median_us);
            }
        }
    }
    if ratio(del as f64, exp as f64) != net.delivered_ratio() {
        t.oracle_mismatch.push(format!(
            "{name}: facade delivered_ratio {} but {del}/{exp} pairs",
            net.delivered_ratio()
        ));
    }
    t.expected += exp;
    t.delivered += del;
    let steps = net.latency_summary();
    t.per_preset.push(format!(
        "{name}: delivered_ratio {:.4} ({del}/{exp}), deliver steps p50 {} p99 {}",
        ratio(del as f64, exp as f64),
        steps.p50,
        steps.p99
    ));

    // ---- content layer replayed on this preset's own filters and events ----
    let (hits, queries) = replay::content(tracer, &filters, &events);
    t.match_hits += hits;
    t.match_queries += queries;
}
