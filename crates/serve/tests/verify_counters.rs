//! `submit` verifies through the same path as the `verify` op without
//! counting as one: the process-wide verify counters move only for
//! `verify` requests. The counters are global, so this suite is alone in
//! its test binary.

use ocelot_serve::{handle_request, ServerState};
use ocelot_telemetry::json::Json;
use ocelot_telemetry::metrics::{VERIFY_FULL, VERIFY_INCREMENTAL};

#[test]
fn submit_counts_as_neither_a_full_nor_an_incremental_verify() {
    const SRC: &str = "sensor s; fn main() { let x = in(s); fresh(x); out(log, x); }";
    ocelot_telemetry::set_metrics(true);
    let mut state = ServerState::new(1, 4);
    let mut ask = |op: &str| {
        let req = Json::obj(vec![("op", Json::str(op)), ("source", Json::str(SRC))]);
        let (resp, _) = handle_request(&mut state, &req);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        resp.get("verdict").cloned().expect("a verdict")
    };
    let submitted = ask("submit");
    assert_eq!((VERIFY_FULL.value(), VERIFY_INCREMENTAL.value()), (0, 0));
    let verified = ask("verify");
    assert_eq!((VERIFY_FULL.value(), VERIFY_INCREMENTAL.value()), (1, 0));
    ocelot_telemetry::set_metrics(false);
    assert_eq!(submitted, verified, "both ops answer the same verdict");
}
