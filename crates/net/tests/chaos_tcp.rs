//! Network-edge chaos: seeded fault schedules driven through real TCP
//! clients with per-request deadlines.
//!
//! Each round boots a service under a seeded [`FaultPlan`] combining
//! worker panics, slow executions, admission bursts, and compile panics,
//! puts the gateway in front, and fires concurrent clients that carry
//! `Timeout-Ms` deadlines. Every response must be one of the typed
//! outcomes (200 / 429 / 500 / 503 / 504 with a JSON `kind`), and after
//! every round the service ledger must reconcile exactly:
//! `resolved() == submitted` — the network edge hides nothing.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use tssa_backend::RtValue;
use tssa_net::{roundtrip, Gateway, GatewayConfig};
use tssa_obs::json::{self, JsonValue};
use tssa_serve::{
    silence_injected_panics_for_tests, BatchSpec, FaultKind, FaultPlan, PipelineKind, ServeConfig,
    ServeError, Service,
};
use tssa_tensor::Tensor;

const ROUNDS: u64 = 12;
const CLIENTS: usize = 8;
const PER_CLIENT: usize = 6;
const SOURCE: &str =
    "def f(x: Tensor):\n    y = x.clone()\n    y[:, 0:1] = sigmoid(x[:, 0:1])\n    return y\n";
const INFER_BODY: &str = r#"{"model": "m", "inputs": [{"tensor": {"shape": [2, 4],
    "data": [1, 1, 1, 1, 1, 1, 1, 1]}}]}"#;

#[derive(Default)]
struct Totals {
    ok: u64,
    shed: u64,
    deadline: u64,
    injected: u64,
}

fn chaos_round(seed: u64, totals: &mut Totals) {
    let plan = FaultPlan::seeded(seed)
        .with_rate(FaultKind::WorkerPanic, 0.05, 32)
        .with_rate(FaultKind::QueueFullBurst, 0.10, 32)
        .with_rate(FaultKind::CompilePanic, 0.30, 3)
        .with_rate(FaultKind::SlowExec, 0.45, 64)
        .with_slow_exec(Duration::from_millis(3));
    let faults = plan.faults();
    let service = Arc::new(Service::new(
        ServeConfig::default()
            .with_workers(2)
            .with_queue_depth(8)
            .with_max_batch(4)
            .with_timeout_grace(Duration::from_millis(2))
            .with_faults(faults.clone()),
    ));
    let example = vec![RtValue::Tensor(Tensor::ones(&[2, 4]))];
    // CompilePanic surfaces as a typed error on load; retry past the
    // schedule's finite horizon.
    let model = loop {
        match service
            .loader(SOURCE)
            .pipeline(PipelineKind::TensorSsa)
            .example(&example)
            .batch(BatchSpec::stacked(1, 1))
            .load()
        {
            Ok(m) => break m,
            Err(ServeError::CompilePanic) => continue,
            Err(other) => panic!("seed {seed}: load failed: {other}"),
        }
    };
    let gateway =
        Gateway::bind(GatewayConfig::default(), Arc::clone(&service)).expect("bind gateway");
    gateway.register_model("m", model);
    let addr = gateway.local_addr();

    let (ok, shed, deadline) = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for client in 0..CLIENTS {
            joins.push(scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                let (mut ok, mut shed, mut deadline) = (0u64, 0u64, 0u64);
                for i in 0..PER_CLIENT {
                    // Deadlines from 3ms to 8ms: tight enough that slow
                    // executions blow through them, loose enough that the
                    // fast path completes.
                    let ms = (3 + (client + i) % 6).to_string();
                    let resp = match roundtrip(
                        &mut stream,
                        "POST",
                        "/v1/infer",
                        &[("Timeout-Ms", &ms)],
                        INFER_BODY.as_bytes(),
                    ) {
                        Ok(resp) => resp,
                        // A refused/shed connection: reconnect and go on.
                        Err(_) => {
                            stream = TcpStream::connect(addr).expect("reconnect");
                            continue;
                        }
                    };
                    let body = json::parse(resp.text()).expect("JSON body");
                    match resp.status {
                        200 => {
                            assert_eq!(body.get("ok"), Some(&JsonValue::Bool(true)));
                            ok += 1;
                        }
                        429 => {
                            assert_eq!(
                                body.get("kind").and_then(JsonValue::as_str),
                                Some("queue_full"),
                                "seed {seed}: {}",
                                resp.text()
                            );
                            shed += 1;
                        }
                        504 => {
                            let kind = body.get("kind").and_then(JsonValue::as_str);
                            assert!(
                                kind == Some("deadline_exceeded") || kind == Some("timeout"),
                                "seed {seed}: {}",
                                resp.text()
                            );
                            deadline += 1;
                        }
                        503 | 500 => {
                            // Canceled (batch crashed twice / drain) or a
                            // typed internal error — still a JSON body.
                            assert!(body.get("kind").is_some(), "seed {seed}: {}", resp.text());
                        }
                        other => panic!("seed {seed}: unexpected status {other}: {}", resp.text()),
                    }
                }
                (ok, shed, deadline)
            }));
        }
        joins
            .into_iter()
            .map(|j| j.join().unwrap())
            .fold((0u64, 0u64, 0u64), |(a, b, c), (x, y, z)| {
                (a + x, b + y, c + z)
            })
    });

    gateway.shutdown();
    let service = Arc::try_unwrap(service).ok().expect("service unshared");
    let metrics = service.shutdown().metrics;
    let plan = faults.plan().expect("plan installed");
    assert_eq!(
        metrics.resolved(),
        metrics.submitted,
        "seed {seed}: the edge must not hide dropped requests\n{metrics}"
    );
    assert_eq!(
        metrics.completed, ok,
        "seed {seed}: HTTP 200s disagree with the completed counter"
    );
    totals.ok += ok;
    totals.shed += shed;
    totals.deadline += deadline;
    totals.injected += plan.injected_total();
}

/// One scripted round that guarantees a deadline outcome regardless of
/// host load: every execution sleeps 5ms while the client allows 1ms
/// (+2ms grace), so no request can possibly complete in time. Sleeps only
/// ever get longer under contention, so this stays deterministic when the
/// whole workspace test suite competes for the machine.
fn deadline_round(totals: &mut Totals) {
    let faults = FaultPlan::seeded(99)
        .with_rate(FaultKind::SlowExec, 1.0, 1_000_000)
        .with_slow_exec(Duration::from_millis(5))
        .faults();
    let service = Arc::new(Service::new(
        ServeConfig::default()
            .with_workers(1)
            .with_timeout_grace(Duration::from_millis(2))
            .with_faults(faults),
    ));
    let example = vec![RtValue::Tensor(Tensor::ones(&[2, 4]))];
    let model = service
        .loader(SOURCE)
        .pipeline(PipelineKind::TensorSsa)
        .example(&example)
        .batch(BatchSpec::stacked(1, 1))
        .load()
        .expect("no compile faults scripted");
    let gateway =
        Gateway::bind(GatewayConfig::default(), Arc::clone(&service)).expect("bind gateway");
    gateway.register_model("m", model);
    let mut stream = TcpStream::connect(gateway.local_addr()).expect("connect");
    for _ in 0..4 {
        let resp = roundtrip(
            &mut stream,
            "POST",
            "/v1/infer",
            &[("Timeout-Ms", "1")],
            INFER_BODY.as_bytes(),
        )
        .expect("round trip");
        assert_eq!(resp.status, 504, "5ms exec cannot beat a 1ms deadline");
        let body = json::parse(resp.text()).expect("JSON body");
        let kind = body.get("kind").and_then(JsonValue::as_str);
        assert!(kind == Some("deadline_exceeded") || kind == Some("timeout"));
        totals.deadline += 1;
    }
    drop(stream);
    gateway.shutdown();
    let service = Arc::try_unwrap(service).ok().expect("service unshared");
    let metrics = service.shutdown().metrics;
    assert_eq!(metrics.resolved(), metrics.submitted, "{metrics}");
}

#[test]
fn tcp_chaos_rounds_resolve_every_request() {
    silence_injected_panics_for_tests();
    let mut totals = Totals::default();
    for seed in 0..ROUNDS {
        chaos_round(seed, &mut totals);
    }
    deadline_round(&mut totals);
    // The suite must actually exercise the interesting paths, not just
    // happen to pass.
    assert!(totals.ok > 0, "no request ever succeeded");
    assert!(totals.injected > 0, "no fault was ever injected");
    assert!(
        totals.deadline > 0,
        "no deadline ever fired (ok={}, shed={})",
        totals.ok,
        totals.shed
    );
}
