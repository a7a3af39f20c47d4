//! Traced lockstep replays of a broker workload's generated input, in this
//! process, for the layers a live run cannot time from outside:
//!
//! - [`broker`]: a `Broker` over `ChannelTransport`, one publication per
//!   turn. The overlay is stepped apart from the pump (`steps_per_pump = 0`
//!   and `network_mut().run(1)` per step), which splits the broker's cost
//!   into pump and simulator time. The frames it exchanges are then
//!   re-encoded and re-decoded to time the wire codec.
//! - [`overlay_facade`]: the same filters and events through `DpsNetwork`
//!   directly, timing `try_subscribe` and `try_publish`.
//! - [`content`]: `FilterIndex` insertion and matching on the filters and
//!   events themselves.

use dps::{DpsNetwork, MsgClass, SharedEvent, SharedFilter};
use dps_broker::wire::{self, Frame, PROTOCOL_VERSION};
use dps_broker::{Broker, BrokerConfig, ChannelTransport, Transport};
use dps_content::{FilterIndex, MatchScratch};

use crate::live::RawClient;
use crate::stats::{ratio, summarize};
use crate::trace::Tracer;
use crate::Report;

pub struct Input<'a> {
    pub seed: u64,
    pub background_nodes: usize,
    pub filters: &'a [SharedFilter],
    pub events: &'a [SharedEvent],
}

/// Turns run after the last publication so its deliveries drain.
const DRAIN_TURNS: usize = 50;
/// Turns run after subscribing so every subscription is placed.
const SETTLE_TURNS: usize = 300;

struct Lockstep {
    broker: Broker,
    steps: u64,
    sub: RawClient,
    publisher: RawClient,
    pumps: usize,
    frames: usize,
}

impl Lockstep {
    /// One broker turn: pump, then step the overlay. Returns the frames the
    /// two clients received.
    fn turn(&mut self, tracer: &mut Tracer, req: u64) -> Vec<Frame> {
        self.publisher.flush().expect("channel send");
        self.sub.flush().expect("channel send");
        let span = tracer.begin("broker.pump", req);
        let applied = self.broker.pump().expect("channel listener");
        tracer.end(span);
        for _ in 0..self.steps {
            let span = tracer.begin("sim.step", req);
            self.broker.network_mut().run(1);
            tracer.end(span);
        }
        self.pumps += 1;
        let mut out = Vec::new();
        for c in [&mut self.sub, &mut self.publisher] {
            c.recv().expect("channel open");
            while let Some(f) = c.next_frame() {
                out.push(f);
            }
        }
        self.frames += applied + out.len();
        out
    }
}

/// Replays the input through a lockstep broker; returns the broker work
/// (pump plus overlay steps) per publication, in ns.
pub fn broker(tracer: &mut Tracer, input: &Input, r: &mut Report) -> f64 {
    let t = ChannelTransport::new();
    let listener = t.listen("perfbench").expect("channel listener");
    let defaults = BrokerConfig::default();
    let cfg = BrokerConfig {
        seed: input.seed,
        background_nodes: input.background_nodes,
        steps_per_pump: 0,
        ..BrokerConfig::default()
    };
    let broker = Broker::new(cfg, listener);
    let connect = || RawClient::new(t.connect("perfbench").expect("channel connect"));
    let mut ls = Lockstep {
        broker,
        steps: defaults.steps_per_pump,
        sub: connect(),
        publisher: connect(),
        pumps: 0,
        frames: 0,
    };
    let hello = Frame::Hello {
        version: PROTOCOL_VERSION,
        session: None,
    };
    ls.sub.queue(&hello);
    ls.publisher.queue(&hello);
    for (j, f) in input.filters.iter().enumerate() {
        ls.sub.queue(&Frame::Subscribe {
            seq: j as u64 + 1,
            sub: j as u64,
            filter: f.clone(),
            credit: u32::MAX / 2,
        });
    }
    let mut untraced = Tracer::new(false);
    for _ in 0..SETTLE_TURNS {
        ls.turn(&mut untraced, 0);
    }
    tracer.record_all();
    let (pumps0, frames0) = (ls.pumps, ls.frames);
    let m0 = ls.broker.network().metrics();
    let recv0: u64 = MsgClass::ALL.iter().map(|c| m0.total_received(*c)).sum();
    let sink = ls.broker.network().sink();
    let (contacts0, notifies0) = (sink.total_contacts(), sink.total_notifies());

    let mut publishes = Vec::new();
    let mut delivers = Vec::new();
    let mut acks = Vec::new();
    for (k, ev) in input.events.iter().enumerate() {
        let frame = Frame::Publish {
            seq: k as u64 + 1000,
            event: ev.clone(),
        };
        ls.publisher.queue(&frame);
        publishes.push(frame);
        sort(ls.turn(tracer, k as u64), &mut delivers, &mut acks);
    }
    for _ in 0..DRAIN_TURNS {
        sort(ls.turn(tracer, 0), &mut delivers, &mut acks);
    }
    let pubs = input.events.len() as f64;
    let pumps = (ls.pumps - pumps0) as f64;
    let net = ls.broker.network();
    let m1 = net.metrics();
    let recv1: u64 = MsgClass::ALL.iter().map(|c| m1.total_received(*c)).sum();
    let steps = pumps * ls.steps as f64;
    let msgs_per_step = ratio((recv1 - recv0) as f64, steps);
    let contacts = (net.sink().total_contacts() - contacts0) as f64;
    let notifies = (net.sink().total_notifies() - notifies0) as f64;

    let l = tracer.layers();
    let mut pump = l
        .get("broker.pump")
        .map(|a| a.self_samples_ns.clone())
        .unwrap_or_default();
    let pump = summarize(&mut pump);
    let mut step = l
        .get("sim.step")
        .map(|a| a.self_samples_ns.clone())
        .unwrap_or_default();
    let step = summarize(&mut step);
    let pump_ns = l.get("broker.pump").map_or(0.0, |a| a.self_ns);
    let step_ns = l.get("sim.step").map_or(0.0, |a| a.self_ns);
    r.samples("broker.pump", pump.n);
    r.samples("sim.step", step.n);
    r.param("replay_publications", input.events.len());
    r.layer("broker.pump_us", pump.p50 / 1e3);
    r.layer("broker.pump_us_p90", pump.p90 / 1e3);
    r.layer(
        "broker.frames_per_pump",
        ratio((ls.frames - frames0) as f64, pumps),
    );
    r.layer(
        "broker.deliver_frames_per_pub",
        ratio(delivers.len() as f64, pubs),
    );
    r.layer(
        "broker.pump_ns_per_delivery",
        ratio(pump_ns, delivers.len() as f64),
    );
    r.layer("sim.step_us", step.p50 / 1e3);
    r.layer("sim.step_us_p90", step.p90 / 1e3);
    r.layer("sim.msgs_per_step", msgs_per_step);
    r.layer("sim.ns_per_msg", ratio(step.mean, msgs_per_step));
    r.layer("sim.dropped", m1.total_dropped() as f64);
    r.layer("overlay.contacts_per_pub", ratio(contacts, pubs));
    r.layer("overlay.notifies_per_pub", ratio(notifies, pubs));
    r.layer("overlay.useful_contact_frac", ratio(notifies, contacts));
    // The lockstep replay is deterministic: these repeat exactly.
    r.det("replay.deliver_frames", delivers.len() as f64);
    r.det("replay.contacts", contacts);
    r.det("replay.msgs", (recv1 - recv0) as f64);
    if delivers.is_empty() || acks.len() != input.events.len() {
        r.fail(format!(
            "lockstep replay: {} acks for {} publications, {} deliveries",
            acks.len(),
            input.events.len(),
            delivers.len()
        ));
    }

    codec(tracer, "Publish", &publishes, r);
    codec(tracer, "Deliver", &delivers, r);
    codec(tracer, "Ack", &acks, r);
    ratio(pump_ns + step_ns, pubs)
}

fn sort(frames: Vec<Frame>, delivers: &mut Vec<Frame>, acks: &mut Vec<Frame>) {
    for f in frames {
        match f {
            Frame::Deliver { .. } => delivers.push(f),
            Frame::Ack { .. } => acks.push(f),
            _ => {}
        }
    }
}

/// Times `wire::encode` and `wire::decode` on the frames of one type.
fn codec(tracer: &mut Tracer, kind: &str, frames: &[Frame], r: &mut Report) {
    let (enc, dec) = match kind {
        "Publish" => ("wire.encode.Publish", "wire.decode.Publish"),
        "Deliver" => ("wire.encode.Deliver", "wire.decode.Deliver"),
        _ => ("wire.encode.Ack", "wire.decode.Ack"),
    };
    let mut encoded = Vec::with_capacity(frames.len());
    tracer.time(enc, 0, || {
        for f in frames {
            encoded.push(wire::encode(std::hint::black_box(f)).expect("frame under the size cap"));
        }
    });
    tracer.time(dec, 0, || {
        for b in &encoded {
            std::hint::black_box(
                wire::decode(std::hint::black_box(b)).expect("a frame we encoded"),
            );
        }
    });
    let l = tracer.layers();
    let n = frames.len() as f64;
    let total: usize = encoded.iter().map(Vec::len).sum();
    r.samples(&format!("wire.frames.{kind}"), frames.len());
    r.layer(&format!("wire.encode_ns.{kind}"), ratio(l[enc].self_ns, n));
    r.layer(&format!("wire.decode_ns.{kind}"), ratio(l[dec].self_ns, n));
    r.layer(&format!("wire.bytes.{kind}"), ratio(total as f64, n));
}

/// The workload's filters and events through the `DpsNetwork` facade the
/// broker hosts: one subscriber node, one publisher node, the broker's
/// default overlay and stepping.
pub fn overlay_facade(tracer: &mut Tracer, input: &Input, r: &mut Report) {
    let cfg = BrokerConfig::default();
    let mut net = DpsNetwork::new(cfg.net.clone(), input.seed);
    net.add_nodes(input.background_nodes);
    net.run(cfg.warmup_steps);
    let sub = net.add_node();
    let publisher = net.add_node();
    tracer.record_all();
    for f in input.filters {
        let span = tracer.begin("dps.subscribe", 0);
        let out = net.try_subscribe(sub, f.clone());
        tracer.end(span);
        out.expect("facade subscription");
    }
    let before = net.sim().now();
    net.quiesce(4000);
    r.layer("overlay.quiesce_steps", (net.sim().now() - before) as f64);
    r.det("overlay.quiesce_steps", r.layers["overlay.quiesce_steps"]);
    for (k, ev) in input.events.iter().enumerate() {
        let span = tracer.begin("dps.publish", k as u64);
        let out = net.try_publish(publisher, ev.clone());
        tracer.end(span);
        out.expect("facade publication");
        net.run(cfg.steps_per_pump);
    }
    let l = tracer.layers();
    r.layer_p50_us(&l, "dps.subscribe", "dps.subscribe_us");
    r.layer_p50_us(&l, "dps.publish", "dps.publish_us");
}

/// `FilterIndex` insertion and matching on the workload's own filters and
/// events. Returns `(hits, queries)`.
pub fn content(
    tracer: &mut Tracer,
    filters: &[SharedFilter],
    events: &[SharedEvent],
) -> (usize, usize) {
    let mut index: FilterIndex<u32> = FilterIndex::new();
    tracer.time("content.insert", 0, || {
        for (i, f) in filters.iter().enumerate() {
            index.insert(i as u32, f.clone());
        }
    });
    let mut scratch = MatchScratch::new();
    let mut hits: Vec<u32> = Vec::new();
    let mut total = 0usize;
    tracer.time("content.match", 0, || {
        for e in events {
            index.matching_into(std::hint::black_box(e), &mut scratch, &mut hits);
            total += std::hint::black_box(&hits).len();
        }
    });
    (total, events.len())
}
