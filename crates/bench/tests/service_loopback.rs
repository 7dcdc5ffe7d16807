//! Two-process loopback smoke: `menshen-serve` and `menshen-loadgen` as
//! real OS processes over 127.0.0.1 — the CI job behind the
//! "running as a network service" quickstart. Small enough to run on every
//! push; the committed `service_loopback` baseline numbers come from
//! `benches/service.rs`.

use menshen_bench::service_proc::{run_loadgen_proc, ServeProc, ServeSpec};

const SERVE_EXE: &str = env!("CARGO_BIN_EXE_menshen-serve");
const LOADGEN_EXE: &str = env!("CARGO_BIN_EXE_menshen-loadgen");

#[test]
fn two_process_loopback_run_is_lossless_and_balanced() {
    let serve = ServeProc::spawn(SERVE_EXE, &ServeSpec::default());
    assert_eq!(serve.data.len(), 2, "one data socket per rx queue");
    assert_eq!(serve.control("PING"), "ok pong");

    let summary = run_loadgen_proc(LOADGEN_EXE, &serve.data, 2_000, 20_000.0);
    assert_eq!(summary.sent, 2_000);
    assert!(summary.lossless(), "echo loss over loopback: {summary:?}");
    assert!(summary.forwarded > 0, "no traffic forwarded: {summary:?}");
    assert!(summary.rtt_p99_ns >= summary.rtt_p50_ns);

    // Live reconfiguration while the service is up (rule-plane change over
    // the control socket), then the graceful-drain conservation audit.
    let reply = serve.control("LOAD 9 smoke-tenant");
    assert!(reply.starts_with("ok module 9"), "{reply}");
    let reply = serve.control("AUDIT");
    assert!(reply.starts_with("ok balanced=true"), "{reply}");

    let drained = serve.drain();
    assert!(drained.balanced, "drain books do not balance: {drained:?}");
    assert_eq!(drained.submitted, summary.sent);
    assert_eq!(drained.forwarded + drained.dropped, drained.submitted);
    assert_eq!(drained.tx, summary.sent, "every verdict echoed");
    assert_eq!(drained.tx_errors, 0);
}
