//! Connections kept open across requests: a wall-clock bar, and
//! handler threads reused around one that stays open.
//!
//! Both ends write each line in one write on a `TCP_NODELAY` socket.
//! Were a line split into two writes without it, Nagle's algorithm
//! would hold the second until the peer's delayed ACK (~40 ms on
//! Linux), so 50 requests would take at least 2 s. Ignored in the
//! default test run (a loaded machine can miss a wall-clock bar); CI
//! runs it alone, in release, with `--ignored`.

use ocelot_serve::{serve, Client, ServeConfig};
use ocelot_telemetry::json::Json;
use std::time::{Duration, Instant};

#[test]
#[ignore = "wall clock: CI runs it alone with --ignored"]
fn kept_open_connection_answers_50_pings_within_a_second() {
    let handle = serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 1,
        max_programs: 8,
        max_inflight: 8,
    })
    .expect("bind ephemeral port");
    let mut client = Client::connect(handle.addr).expect("connect");
    let ping = Json::obj(vec![("op", Json::str("ping"))]);
    let t0 = Instant::now();
    for i in 0..50 {
        let resp = client.request(&ping).expect("ping answered");
        assert_eq!(
            resp.get("pong").and_then(Json::as_bool),
            Some(true),
            "ping {i}: {resp:?}"
        );
    }
    let elapsed = t0.elapsed();
    handle.stop();
    assert!(
        elapsed < Duration::from_secs(1),
        "50 pings on one connection took {elapsed:?}"
    );
}

/// A kept-open connection holds its handler thread; short connections
/// opened meanwhile are served by other handlers, parked ones reused,
/// and `stop` returns with handlers both parked and busy.
#[test]
fn short_connections_interleave_with_a_kept_open_one() {
    let handle = serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        jobs: 1,
        max_programs: 8,
        max_inflight: 8,
    })
    .expect("bind ephemeral port");
    let ping = Json::obj(vec![("op", Json::str("ping"))]);
    let pong = |resp: Json| resp.get("pong").and_then(Json::as_bool) == Some(true);
    let mut kept = Client::connect(handle.addr).expect("connect");
    assert!(pong(kept.request(&ping).expect("kept ping")));
    for i in 0..20 {
        let resp = Client::connect(handle.addr)
            .expect("connect")
            .request(&ping)
            .expect("short ping");
        assert!(pong(resp), "short connection {i}");
        assert!(pong(kept.request(&ping).expect("kept ping")), "kept {i}");
    }
    handle.stop();
}
