//! End-to-end tests: real TCP clients against a live gateway.
//!
//! These tests exercise the full edge-to-executor path — socket, HTTP
//! framing, JSON wire, admission, batching, workers — and the autoscaling
//! loop on top of it, with correctness checked against a direct in-process
//! submit of the same request.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tssa_backend::RtValue;
use tssa_net::{roundtrip, AutoscaleConfig, Autoscaler, Gateway, GatewayConfig};
use tssa_obs::json::{self, JsonValue};
use tssa_serve::{BatchSpec, FaultKind, FaultPlan, PipelineKind, Profiler, ServeConfig, Service};
use tssa_tensor::Tensor;

const SOURCE: &str =
    "def f(x: Tensor):\n    y = x.clone()\n    y[:, 0:1] = sigmoid(x[:, 0:1])\n    return y\n";

const INFER_BODY: &str = r#"{"model": "m", "inputs": [{"tensor": {"shape": [2, 4],
    "data": [1, 1, 1, 1, 1, 1, 1, 1]}}]}"#;

fn boot(config: ServeConfig) -> (Arc<Service>, Gateway) {
    let service = Arc::new(Service::new(config));
    let example = vec![RtValue::Tensor(Tensor::ones(&[2, 4]))];
    let model = service
        .loader(SOURCE)
        .pipeline(PipelineKind::TensorSsa)
        .example(&example)
        .batch(BatchSpec::stacked(1, 1))
        .load()
        .expect("load model");
    let gateway =
        Gateway::bind(GatewayConfig::default(), Arc::clone(&service)).expect("bind gateway");
    gateway.register_model("m", model);
    (service, gateway)
}

fn teardown(service: Arc<Service>, gateway: Gateway) -> tssa_serve::MetricsSnapshot {
    gateway.shutdown();
    let service = Arc::try_unwrap(service).ok().expect("service unshared");
    service.shutdown().metrics
}

/// Decode `outputs[0].tensor.data` from a wire response body. The body
/// must be valid JSON; the values come from the wire's own typed decoder
/// (a response's `outputs` are encoded exactly as a request's `inputs`).
fn output_data(body: &str) -> Vec<f32> {
    let value = json::parse(body).expect("response is JSON");
    assert_eq!(
        value.get("ok"),
        Some(&JsonValue::Bool(true)),
        "not ok: {body}"
    );
    let outputs = body.split_once("\"outputs\":").expect("outputs key").1;
    let as_request = format!("{{\"model\":\"m\",\"inputs\":{outputs}");
    let decoded = tssa_net::parse_infer(&as_request).expect("outputs decode as inputs");
    decoded.inputs[0]
        .as_tensor()
        .expect("outputs[0] is a tensor")
        .to_vec_f32()
        .expect("f32 data")
}

#[test]
fn sixty_four_concurrent_tcp_clients_match_direct_submit() {
    const CLIENTS: usize = 64;
    const PER_CLIENT: usize = 4;
    let (service, gateway) = boot(ServeConfig::default().with_workers(2).with_queue_depth(256));
    // The ground truth: the same request submitted directly, no network.
    let example = vec![RtValue::Tensor(Tensor::ones(&[2, 4]))];
    let model = service
        .loader(SOURCE)
        .pipeline(PipelineKind::TensorSsa)
        .example(&example)
        .batch(BatchSpec::stacked(1, 1))
        .load()
        .expect("load is a cache hit");
    let direct = service
        .submit(&model, example)
        .expect("direct submit")
        .wait()
        .expect("direct wait");
    let expected: Vec<f32> = direct.outputs[0].as_tensor().unwrap().to_vec_f32().unwrap();

    let addr = gateway.local_addr();
    let expected = &expected;
    let ok = std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for _ in 0..CLIENTS {
            joins.push(scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                let mut ok = 0usize;
                // Keep-alive: every request of this client rides one
                // connection.
                for _ in 0..PER_CLIENT {
                    let resp = roundtrip(
                        &mut stream,
                        "POST",
                        "/v1/infer",
                        &[("Content-Type", "application/json")],
                        INFER_BODY.as_bytes(),
                    )
                    .expect("roundtrip");
                    assert_eq!(resp.status, 200, "body: {}", resp.text());
                    let got = output_data(resp.text());
                    // The wire is bit-exact, so no tolerance.
                    assert_eq!(&got, expected, "network result != direct result");
                    ok += 1;
                }
                ok
            }));
        }
        joins.into_iter().map(|j| j.join().unwrap()).sum::<usize>()
    });
    assert_eq!(ok, CLIENTS * PER_CLIENT);

    let metrics = teardown(service, gateway);
    assert_eq!(metrics.resolved(), metrics.submitted, "ledger reconciles");
    assert_eq!(metrics.submitted, (CLIENTS * PER_CLIENT) as u64 + 1);
    assert_eq!(metrics.completed, (CLIENTS * PER_CLIENT) as u64 + 1);
}

#[test]
fn metrics_exposition_is_parseable_and_consolidated() {
    let (service, gateway) = boot(ServeConfig::default().with_workers(1));
    let autoscaler = Autoscaler::spawn(
        Arc::clone(&service),
        AutoscaleConfig {
            tick: Duration::from_millis(10),
            ..AutoscaleConfig::default()
        },
    );
    let addr = gateway.local_addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    for _ in 0..5 {
        let resp =
            roundtrip(&mut stream, "POST", "/v1/infer", &[], INFER_BODY.as_bytes()).expect("infer");
        assert_eq!(resp.status, 200);
    }
    // Give the autoscaler a tick so its gauges exist.
    std::thread::sleep(Duration::from_millis(50));
    let resp = roundtrip(&mut stream, "GET", "/metrics", &[], b"").expect("metrics");
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("transfer-encoding"),
        Some("chunked"),
        "/metrics streams chunked"
    );
    let text = resp.text();
    // One consolidated exposition: service series, gateway series,
    // autoscaler series.
    for series in [
        "tssa_queue_wait_us",
        "tssa_requests_submitted_total",
        "tssa_pool_workers",
        "tssa_net_requests_total",
        "tssa_net_responses_total",
        "tssa_autoscaler_workers",
        "tssa_autoscaler_window_p99_us",
    ] {
        assert!(text.contains(series), "missing {series} in:\n{text}");
    }
    // Prometheus text format: every line is a comment or `name[{labels}] value`.
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let value = line.rsplit(' ').next().expect("line has a value");
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable sample line: {line}"
        );
    }
    autoscaler.stop();
    let metrics = teardown(service, gateway);
    assert_eq!(metrics.resolved(), metrics.submitted);
}

#[test]
fn autoscaler_grows_under_load_and_shrinks_after_idle() {
    // Slow executions with a single starting worker: queue wait explodes,
    // the autoscaler must grow. After the load stops it must shrink back.
    let plan = FaultPlan::seeded(11)
        .with_rate(FaultKind::SlowExec, 1.0, 1_000_000)
        .with_slow_exec(Duration::from_millis(2));
    let (service, gateway) = boot(
        ServeConfig::default()
            .with_workers(1)
            .with_queue_depth(8)
            .with_max_batch(2)
            .with_faults(plan.faults()),
    );
    let autoscaler = Autoscaler::spawn(
        Arc::clone(&service),
        AutoscaleConfig {
            min_workers: 1,
            max_workers: 3,
            high_water_us: 400,
            low_water_us: 200,
            // One high window is enough here: on a single-core runner,
            // completions arrive in bursts, and an empty window between two
            // busy ones resets the high streak — hysteresis itself is
            // covered by the deterministic ScaleController unit tests.
            high_ticks: 1,
            low_ticks: 3,
            cooldown_ticks: 1,
            tick: Duration::from_millis(50),
        },
    );
    let addr = gateway.local_addr();
    let stop = AtomicBool::new(false);
    let grew = std::thread::scope(|scope| {
        // 8 closed-loop clients keep the queue pressurized.
        for _ in 0..8 {
            scope.spawn(|| {
                let mut stream = TcpStream::connect(addr).expect("connect");
                while !stop.load(Ordering::SeqCst) {
                    match roundtrip(&mut stream, "POST", "/v1/infer", &[], INFER_BODY.as_bytes()) {
                        Ok(resp) => assert!(
                            resp.status == 200 || resp.status == 429,
                            "unexpected status {}: {}",
                            resp.status,
                            resp.text()
                        ),
                        // The gateway may close the connection on shed.
                        Err(_) => match TcpStream::connect(addr) {
                            Ok(s) => stream = s,
                            Err(_) => break,
                        },
                    }
                }
            });
        }
        // Scale-up: poll until the pool grows past its starting size.
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut grew = false;
        while Instant::now() < deadline {
            if service.worker_count() > 1 {
                grew = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        stop.store(true, Ordering::SeqCst);
        grew
    });
    assert!(grew, "autoscaler never grew the pool under sustained load");

    // Scale-down: with traffic gone the queue-wait windows are empty.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut shrank = false;
    while Instant::now() < deadline {
        if service.worker_count() == 1 {
            shrank = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(shrank, "autoscaler never shrank the pool after idle");

    let registry = service.registry();
    assert!(
        registry
            .counter("tssa_autoscaler_scale_ups_total", "", &[])
            .get()
            > 0,
        "scale-up counter"
    );
    assert!(
        registry
            .counter("tssa_autoscaler_scale_downs_total", "", &[])
            .get()
            > 0,
        "scale-down counter"
    );
    autoscaler.stop();
    let metrics = teardown(service, gateway);
    assert_eq!(
        metrics.resolved(),
        metrics.submitted,
        "ledger reconciles through grow/shrink\n{metrics}"
    );
}

#[test]
fn health_and_error_routes_behave() {
    let (service, gateway) = boot(ServeConfig::default().with_workers(1));
    let addr = gateway.local_addr();
    let mut stream = TcpStream::connect(addr).expect("connect");

    let resp = roundtrip(&mut stream, "GET", "/healthz", &[], b"").unwrap();
    assert_eq!(resp.status, 200);
    let resp = roundtrip(&mut stream, "GET", "/readyz", &[], b"").unwrap();
    assert_eq!(resp.status, 200, "not degraded → ready");

    let resp = roundtrip(&mut stream, "GET", "/nope", &[], b"").unwrap();
    assert_eq!(resp.status, 404);
    let resp = roundtrip(&mut stream, "POST", "/v1/infer", &[], b"not json").unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.text().contains("invalid_request"));
    let resp = roundtrip(
        &mut stream,
        "POST",
        "/v1/infer",
        &[],
        br#"{"model": "ghost", "inputs": []}"#,
    )
    .unwrap();
    assert_eq!(resp.status, 404);
    assert!(resp.text().contains("unknown_model"));
    let resp = roundtrip(
        &mut stream,
        "POST",
        "/v1/infer",
        &[("Timeout-Ms", "soon")],
        INFER_BODY.as_bytes(),
    )
    .unwrap();
    assert_eq!(resp.status, 400, "bad Timeout-Ms header");
    let resp = roundtrip(&mut stream, "DELETE", "/v1/infer", &[], b"").unwrap();
    assert_eq!(resp.status, 405);

    // All of that rode one keep-alive connection; a final good request
    // proves the connection survived the 4xx responses.
    let resp = roundtrip(&mut stream, "POST", "/v1/infer", &[], INFER_BODY.as_bytes()).unwrap();
    assert_eq!(resp.status, 200);

    let metrics = teardown(service, gateway);
    assert_eq!(metrics.resolved(), metrics.submitted);
}

#[test]
fn nesting_bomb_gets_a_typed_400_and_the_process_lives() {
    let (service, gateway) = boot(ServeConfig::default().with_workers(1));
    let addr = gateway.local_addr();
    // Well under `max_body`; a recursive parser overflows its stack on
    // this and takes the whole process down.
    for bomb in ["[".repeat(1 << 20), "{\"a\":".repeat(1 << 18)] {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let resp = roundtrip(&mut stream, "POST", "/v1/infer", &[], bomb.as_bytes()).unwrap();
        assert_eq!(resp.status, 400);
        assert!(resp.text().contains("invalid_request"), "{}", resp.text());
    }
    let mut stream = TcpStream::connect(addr).expect("connect");
    let resp = roundtrip(&mut stream, "POST", "/v1/infer", &[], INFER_BODY.as_bytes()).unwrap();
    assert_eq!(resp.status, 200, "the gateway still serves");
    let metrics = teardown(service, gateway);
    assert_eq!(metrics.resolved(), metrics.submitted);
}

#[test]
fn fixed_response_survives_short_and_interrupted_writes() {
    /// Accepts at most 7 bytes per call, from the first non-empty
    /// slice only, and is interrupted before every other write.
    struct Trickle(Vec<u8>, usize);
    impl std::io::Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.1 += 1;
            if self.1 % 2 == 1 {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(7);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let body: Vec<u8> = (0..100u8).collect();
    let mut whole = Vec::new();
    tssa_net::http::write_response(&mut whole, 200, "application/x-tssa-tensor", &body, true)
        .unwrap();
    let mut trickle = Trickle(Vec::new(), 0);
    tssa_net::http::write_response(&mut trickle, 200, "application/x-tssa-tensor", &body, true)
        .unwrap();
    assert_eq!(trickle.0, whole);
    assert!(whole.ends_with(&body));
}

/// The delayed-ACK stall (a response written in pieces on a socket without
/// `TCP_NODELAY`) costs ≥ 40 ms per round trip; a healthy loopback round
/// trip here is under 3 ms. The bound sits 4× from either.
#[test]
fn small_responses_do_not_wait_out_a_delayed_ack() {
    const TRIPS: usize = 50;
    const BOUND: Duration = Duration::from_millis(10);
    let (service, gateway) = boot(ServeConfig::default().with_workers(1));
    let mut stream = TcpStream::connect(gateway.local_addr()).expect("connect");
    let mut median = |method: &str, path: &str, body: &[u8], trips: usize| {
        let mut took: Vec<Duration> = (0..trips)
            .map(|_| {
                let started = Instant::now();
                let resp = roundtrip(&mut stream, method, path, &[], body).expect("roundtrip");
                assert_eq!(resp.status, 200);
                started.elapsed()
            })
            .collect();
        took.sort();
        took[trips / 2]
    };
    let healthz = median("GET", "/healthz", b"", TRIPS);
    assert!(healthz < BOUND, "GET /healthz median {healthz:?}");
    let infer = median("POST", "/v1/infer", INFER_BODY.as_bytes(), TRIPS);
    assert!(infer < BOUND, "POST /v1/infer median {infer:?}");
    let scrape = median("GET", "/metrics", b"", 1);
    assert!(scrape < BOUND, "GET /metrics took {scrape:?}");
    teardown(service, gateway);
}

#[test]
fn binary_content_type_round_trips_and_matches_json() {
    use tssa_net::{wire, BinaryReply};
    let (service, gateway) = boot(ServeConfig::default().with_workers(1));
    let addr = gateway.local_addr();
    let mut stream = TcpStream::connect(addr).expect("connect");

    // The same request over both encodings, interleaved on one keep-alive
    // connection, must agree bit-for-bit.
    let inputs = vec![RtValue::Tensor(Tensor::ones(&[2, 4]))];
    let binary_body = wire::encode_infer_request_binary("m", &inputs).expect("encode binary");
    let binary_headers = [("Content-Type", wire::BINARY_CONTENT_TYPE)];

    let json_resp =
        roundtrip(&mut stream, "POST", "/v1/infer", &[], INFER_BODY.as_bytes()).unwrap();
    assert_eq!(json_resp.status, 200);
    let json_out = output_data(json_resp.text());

    let bin_resp = roundtrip(
        &mut stream,
        "POST",
        "/v1/infer",
        &binary_headers,
        &binary_body,
    )
    .unwrap();
    assert_eq!(bin_resp.status, 200);
    assert_eq!(
        bin_resp.header("content-type"),
        Some(wire::BINARY_CONTENT_TYPE),
        "binary requests get binary responses"
    );
    let bin_out = match wire::parse_response_binary(&bin_resp.body).expect("decode binary") {
        BinaryReply::Ok { outputs, .. } => outputs[0].as_tensor().unwrap().to_vec_f32().unwrap(),
        BinaryReply::Err { kind, message } => panic!("binary infer failed: {kind}: {message}"),
    };
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    assert_eq!(
        bits(&bin_out),
        bits(&json_out),
        "both encodings see the same outputs"
    );

    // Errors come back in the negotiated encoding too: unknown model (404)
    // and a garbage body (400) both decode as typed binary errors.
    let ghost = wire::encode_infer_request_binary("ghost", &inputs).unwrap();
    let resp = roundtrip(&mut stream, "POST", "/v1/infer", &binary_headers, &ghost).unwrap();
    assert_eq!(resp.status, 404);
    match wire::parse_response_binary(&resp.body).expect("binary error body") {
        BinaryReply::Err { kind, .. } => assert_eq!(kind, "unknown_model"),
        BinaryReply::Ok { .. } => panic!("ghost model should not resolve"),
    }
    let resp = roundtrip(
        &mut stream,
        "POST",
        "/v1/infer",
        &binary_headers,
        b"\xffnot a binary body",
    )
    .unwrap();
    assert_eq!(resp.status, 400);
    match wire::parse_response_binary(&resp.body).expect("binary error body") {
        BinaryReply::Err { kind, .. } => assert_eq!(kind, "invalid_request"),
        BinaryReply::Ok { .. } => panic!("garbage should not parse"),
    }

    // A JSON request after binary traffic still defaults to JSON.
    let resp = roundtrip(&mut stream, "POST", "/v1/infer", &[], INFER_BODY.as_bytes()).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("content-type"), Some("application/json"));

    let metrics = teardown(service, gateway);
    assert_eq!(metrics.resolved(), metrics.submitted);
}

#[test]
fn oversized_bodies_are_refused_with_413() {
    let service = Arc::new(Service::new(ServeConfig::default().with_workers(1)));
    let gateway = Gateway::bind(
        GatewayConfig {
            limits: tssa_net::Limits {
                max_body: 256,
                ..tssa_net::Limits::default()
            },
            ..GatewayConfig::default()
        },
        Arc::clone(&service),
    )
    .expect("bind");
    let mut stream = TcpStream::connect(gateway.local_addr()).expect("connect");
    let huge = vec![b'x'; 4096];
    let resp = roundtrip(&mut stream, "POST", "/v1/infer", &[], &huge).unwrap();
    assert_eq!(resp.status, 413);
    gateway.shutdown();
    Arc::try_unwrap(service).ok().expect("unshared").shutdown();
}

#[test]
fn connection_cap_sheds_with_503() {
    let service = Arc::new(Service::new(ServeConfig::default().with_workers(1)));
    let gateway = Gateway::bind(
        GatewayConfig {
            max_connections: 2,
            ..GatewayConfig::default()
        },
        Arc::clone(&service),
    )
    .expect("bind");
    let addr = gateway.local_addr();
    // Two connections hold their slots by being connected and mid-session.
    let mut a = TcpStream::connect(addr).unwrap();
    let mut b = TcpStream::connect(addr).unwrap();
    assert_eq!(
        roundtrip(&mut a, "GET", "/healthz", &[], b"")
            .unwrap()
            .status,
        200
    );
    assert_eq!(
        roundtrip(&mut b, "GET", "/healthz", &[], b"")
            .unwrap()
            .status,
        200
    );
    // The third is refused at accept time.
    let c = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(c);
    let resp = tssa_net::http::read_response(&mut reader).expect("refusal response");
    assert_eq!(resp.status, 503);
    gateway.shutdown();
    Arc::try_unwrap(service).ok().expect("unshared").shutdown();
}

#[test]
fn graceful_shutdown_drains_inflight_requests() {
    let plan = FaultPlan::seeded(3)
        .with_rate(FaultKind::SlowExec, 1.0, 10_000)
        .with_slow_exec(Duration::from_millis(5));
    let (service, gateway) = boot(
        ServeConfig::default()
            .with_workers(1)
            .with_faults(plan.faults()),
    );
    let addr = gateway.local_addr();
    let handle = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        roundtrip(&mut stream, "POST", "/v1/infer", &[], INFER_BODY.as_bytes())
            .expect("request survives shutdown")
    });
    // Wait until the request is in flight (submitted to the service, where
    // the injected slow execution holds it), then shut the edge down.
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.metrics().submitted < 1 {
        assert!(
            Instant::now() < deadline,
            "the request never reached the service"
        );
        std::thread::sleep(Duration::from_micros(200));
    }
    gateway.shutdown();
    let resp = handle.join().unwrap();
    assert_eq!(resp.status, 200, "in-flight request completed during drain");
    assert_eq!(
        resp.header("connection"),
        Some("close"),
        "drain tells the client the connection is done"
    );
    let service = Arc::try_unwrap(service).ok().expect("unshared");
    let metrics = service.shutdown().metrics;
    assert_eq!(metrics.resolved(), metrics.submitted);
}

#[test]
fn concurrent_metrics_and_profile_scrapes_stay_consistent() {
    const SCRAPES: usize = 12;
    let profiler = Profiler::new();
    let (service, gateway) = boot(
        ServeConfig::default()
            .with_workers(2)
            .with_queue_depth(256)
            .with_profiler(Some(profiler.clone())),
    );
    let addr = gateway.local_addr();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Live traffic for the whole scrape window.
        let stop_ref = &stop;
        let mut traffic = Vec::new();
        for _ in 0..2 {
            traffic.push(scope.spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                while !stop_ref.load(Ordering::Relaxed) {
                    let resp = roundtrip(
                        &mut stream,
                        "POST",
                        "/v1/infer",
                        &[("Content-Type", "application/json")],
                        INFER_BODY.as_bytes(),
                    )
                    .expect("roundtrip");
                    assert_eq!(resp.status, 200, "body: {}", resp.text());
                }
            }));
        }
        // One scraper per debug endpoint, concurrent with the traffic and
        // with each other.
        let metrics_scraper = scope.spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            for _ in 0..SCRAPES {
                let resp = roundtrip(&mut stream, "GET", "/metrics", &[], b"").expect("scrape");
                assert_eq!(resp.status, 200);
                // Chunked reassembly must yield whole exposition lines:
                // every sample line is `series<space>value`.
                for line in resp.text().lines() {
                    if line.is_empty() || line.starts_with('#') {
                        continue;
                    }
                    let (series, value) = line
                        .rsplit_once(' ')
                        .unwrap_or_else(|| panic!("torn exposition line: {line:?}"));
                    assert!(!series.is_empty(), "torn exposition line: {line:?}");
                    assert!(
                        value.parse::<f64>().is_ok(),
                        "torn exposition line: {line:?}"
                    );
                }
            }
        });
        let profile_scraper = scope.spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            let mut last_total = 0.0f64;
            for _ in 0..SCRAPES {
                let resp =
                    roundtrip(&mut stream, "GET", "/debug/profile", &[], b"").expect("scrape");
                assert_eq!(resp.status, 200);
                let value = json::parse(resp.text()).expect("profile JSON parses");
                let total = value
                    .get("total_self_us")
                    .and_then(JsonValue::as_f64)
                    .expect("total_self_us");
                assert!(
                    total >= last_total,
                    "profiler totals went backwards: {last_total} -> {total}"
                );
                last_total = total;
                let resp = roundtrip(
                    &mut stream,
                    "GET",
                    "/debug/profile?format=collapsed",
                    &[],
                    b"",
                )
                .expect("scrape");
                assert_eq!(resp.status, 200);
                for line in resp.text().lines() {
                    let (frames, count) = line.rsplit_once(' ').expect("collapsed line");
                    assert_eq!(
                        frames.split(';').count(),
                        3,
                        "plan;group;op frames: {line:?}"
                    );
                    count.parse::<u64>().expect("collapsed count is an integer");
                }
            }
        });
        metrics_scraper.join().unwrap();
        profile_scraper.join().unwrap();
        stop.store(true, Ordering::Relaxed);
        for t in traffic {
            t.join().unwrap();
        }
    });
    // With always-on profiling and live traffic, the table saw the plan.
    assert!(
        !profiler.snapshot().entries.is_empty(),
        "profiler recorded nothing during live traffic"
    );
    teardown(service, gateway);
}
