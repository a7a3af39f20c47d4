//! A served broker's memory must not grow with the publications it handles:
//! `Broker::serve` drops each turn's per-publication history once the turn
//! is done, while every matching event still reaches its subscriber.

#[allow(dead_code)] // the broker here runs in-process, not as a subprocess
mod common;

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::TempDir;
use dps_broker::{Broker, BrokerConfig, Transport, UnixTransport};
use dps_client::Session;

const TIMEOUT: Duration = Duration::from_secs(10);
const PUBLICATIONS: i64 = 3_000;

#[test]
fn served_broker_keeps_no_per_publication_history() {
    let dir = TempDir::new();
    let socket = dir.path.join("dps.sock").display().to_string();
    let listener = UnixTransport.listen(&socket).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let broker = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut broker = Broker::new(BrokerConfig::default(), listener);
            broker
                .serve(|| stop.load(Ordering::SeqCst))
                .expect("unix listener");
            broker
        })
    };

    let subs = Session::connect(&UnixTransport, &socket, TIMEOUT).unwrap();
    let sub = subs
        .subscriber("price > 100".parse::<dps::Filter>().unwrap())
        .unwrap();
    let feed = Session::connect(&UnixTransport, &socket, TIMEOUT).unwrap();
    let publisher = feed.publisher().unwrap();

    // Placement takes overlay steps: probe until the subscription delivers.
    let mut probes = HashSet::new();
    let deadline = Instant::now() + TIMEOUT;
    loop {
        let r = publisher
            .publish("price = 1000".parse::<dps::Event>().unwrap())
            .unwrap();
        probes.insert((r.node, r.seq));
        if sub.recv_timeout(Duration::from_millis(20)).is_some() {
            break;
        }
        assert!(Instant::now() < deadline, "subscription never placed");
    }

    let mut want = Vec::new();
    let mut got = Vec::new();
    let fresh = |d: &dps::Delivery| !probes.contains(&(d.publisher, d.seq));
    for k in 0..PUBLICATIONS {
        let price = (k * 37) % 300;
        let r = publisher
            .publish(format!("price = {price}").parse::<dps::Event>().unwrap())
            .unwrap();
        if price > 100 {
            want.push((r.node, r.seq));
        }
        // Consuming as we go keeps the credit window open.
        got.extend(
            sub.drain()
                .iter()
                .filter(|d| fresh(d))
                .map(|d| (d.publisher, d.seq)),
        );
    }
    let deadline = Instant::now() + TIMEOUT;
    while got.len() < want.len() && Instant::now() < deadline {
        if let Some(d) = sub.recv_timeout(Duration::from_millis(50)).filter(fresh) {
            got.push((d.publisher, d.seq));
        }
    }
    assert_eq!(got, want, "every match, in publish order");

    feed.close().unwrap();
    subs.close().unwrap();
    stop.store(true, Ordering::SeqCst);
    let broker = broker.join().expect("serve thread");
    // One turn applies at most a few frames; a broker that kept its history
    // would hold a record for each of the publications above.
    let reports = broker.network().reports().len();
    let contacts = broker.network().sink().total_contacts();
    assert!(reports <= 4, "{reports} publication records retained");
    assert!(contacts <= 64, "{contacts} contact pairs retained");
    // Nor the simulator's per-window traffic counters, one set per 100 steps.
    let windows = broker.network().metrics().windows().len();
    assert!(windows <= 1, "{windows} metrics windows retained");
}
