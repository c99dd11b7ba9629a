//! `edge-http`: the same `Service` behind a `Gateway`, driven over
//! keep-alive TCP connections with `POST /v1/infer`. HTTP framing, the two
//! tensor codecs and socket behaviour dominate; small payloads expose
//! per-round-trip stalls, the large JSON body exposes codec cost.

use std::io::BufReader;
use std::sync::Arc;
use std::time::Instant;

use tssa_backend::{ExecStats, RtValue};
use tssa_net::{
    encode_infer_request, encode_infer_request_binary, encode_response, encode_response_binary,
    http as net_http, parse_infer, parse_infer_binary, parse_response_binary, BinaryReply, Gateway,
    GatewayConfig, Limits, BINARY_CONTENT_TYPE,
};
use tssa_obs::{SpanRecord, Tracer};
use tssa_serve::{ModelHandle, Response, ServeConfig, Service};

use super::{nproc, probe_us, timed_us, Ctx, Phases, Samples, Workload, WARMUP_OPS};
use crate::cells::{outputs_match, reference, Program, Tally};
use crate::http::{self, Client};
use crate::metrics::Report;
use crate::stats::{geomean, mean, median, RoundRobin};
use crate::trace::HARNESS;

/// Keep-alive connections, one generator thread each; never more than the
/// host has cores.
const CONNECTIONS: usize = 2;

/// Small recurrent, small straight-line and large straight-line payloads.
const PROGRAMS: [&str; 3] = ["yolact", "seq2seq", "yolov3"];

const JSON_CONTENT_TYPE: &str = "application/json";

/// A round trip slower than this many times the cell's direct `submit` is
/// counted as slow.
const SLOW_FACTOR: f64 = 10.0;

struct Cell {
    name: String,
    program: usize,
    binary: bool,
    /// The request body, and the whole request (head + body) as sent.
    body: Vec<u8>,
    message: Vec<u8>,
}

struct Model {
    handle: ModelHandle,
    inputs: Vec<RtValue>,
    reference: Vec<RtValue>,
}

/// One completed round trip.
struct RoundTrip {
    cell: usize,
    us: f64,
    completed_s: f64,
    sent: usize,
    received: usize,
}

pub struct EdgeHttp {
    service: Arc<Service>,
    gateway: Gateway,
    clients: Vec<Client>,
    models: Vec<Model>,
    cells: Vec<Cell>,
    seed: u64,
    tracer: Tracer,
    traced: bool,
}

fn content_type(binary: bool) -> &'static str {
    if binary {
        BINARY_CONTENT_TYPE
    } else {
        JSON_CONTENT_TYPE
    }
}

/// Decode the outputs of a 200 reply. The JSON form reuses the request
/// decoder: a response's `"outputs"` array is encoded exactly as a
/// request's `"inputs"`.
fn decode_outputs(binary: bool, body: &[u8]) -> Option<Vec<RtValue>> {
    if binary {
        match parse_response_binary(body).ok()? {
            BinaryReply::Ok { outputs, .. } => Some(outputs),
            BinaryReply::Err { .. } => None,
        }
    } else {
        let text = std::str::from_utf8(body).ok()?;
        let outputs = &text[text.find("\"outputs\":")? + "\"outputs\":".len()..];
        let as_request = format!("{{\"model\":\"m\",\"inputs\":{outputs}");
        Some(parse_infer(&as_request).ok()?.inputs)
    }
}

impl EdgeHttp {
    pub fn setup(ctx: &Ctx) -> EdgeHttp {
        let service = Arc::new(Service::new(
            ServeConfig::default()
                .with_workers(nproc())
                .with_tracer(ctx.tracer.clone()),
        ));
        let gateway =
            Gateway::bind(GatewayConfig::default(), Arc::clone(&service)).expect("bind gateway");
        let (mut models, mut cells) = (Vec::new(), Vec::new());
        for (i, name) in PROGRAMS.iter().enumerate() {
            let program = Program::builtin(name);
            let inputs = program.inputs(0, 0, ctx.seed + i as u64);
            let handle = service
                .loader(&program.source)
                .named(name)
                .example(&inputs)
                .batch(program.spec())
                .load()
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            gateway.register_model(name, handle.clone());
            for binary in [false, true] {
                let body = if binary {
                    encode_infer_request_binary(name, &inputs)
                } else {
                    encode_infer_request(name, &inputs).map(String::into_bytes)
                };
                let body = body.expect("encodable inputs");
                cells.push(Cell {
                    name: format!("{name}/{}", if binary { "binary" } else { "json" }),
                    program: i,
                    binary,
                    message: http::message("POST", "/v1/infer", content_type(binary), &body),
                    body,
                });
            }
            models.push(Model {
                handle,
                reference: reference(&program, &inputs),
                inputs,
            });
        }
        let clients = (0..CONNECTIONS.min(nproc()))
            .map(|_| Client::connect(gateway.local_addr()).expect("connect"))
            .collect();
        let mut edge = EdgeHttp {
            seed: ctx.seed,
            service,
            gateway,
            clients,
            models,
            cells,
            tracer: ctx.tracer.clone(),
            traced: ctx.traced,
        };
        let warmup_ops = WARMUP_OPS * edge.cells.len() / edge.clients.len();
        let (_, warm) = edge.drive(|_, sent| sent < warmup_ops, true);
        assert_eq!(warm.failed, 0, "warm-up replies differ from the reference");
        edge
    }

    /// The closed loop: every connection sends the cells round-robin (each
    /// with its own [`RoundRobin`]) while
    /// `keep_going(elapsed_s, sent_on_this_connection)` holds, one request
    /// in flight per connection.
    fn drive(
        &mut self,
        keep_going: impl Fn(f64, usize) -> bool + Sync,
        check_all: bool,
    ) -> (Vec<RoundTrip>, Tally) {
        let (cells, models, tracer, seed) = (&self.cells, &self.models, &self.tracer, self.seed);
        let started = Instant::now();
        let keep_going = &keep_going;
        let per_thread: Vec<(Vec<RoundTrip>, Tally)> = std::thread::scope(|scope| {
            let threads: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(i, client)| {
                    scope.spawn(move || {
                        let mut trips = Vec::new();
                        let mut tally = Tally {
                            check_all,
                            ..Tally::default()
                        };
                        let mut order = RoundRobin::new(cells.len(), seed + i as u64);
                        let mut sent = 0usize;
                        while keep_going(started.elapsed().as_secs_f64(), sent) {
                            let c = order.next_cell();
                            let cell = &cells[c];
                            sent += 1;
                            let check = tally.attempt();
                            let span = tracer.root(cell.name.as_str(), HARNESS);
                            let (reply, us) = timed_us(|| client.round_trip(&cell.message));
                            span.finish();
                            let Ok(reply) = reply else {
                                tally.fail();
                                continue;
                            };
                            if reply.status != 200 {
                                tally.fail();
                                continue;
                            }
                            if check {
                                let want = &models[cell.program].reference;
                                tally.check(
                                    decode_outputs(cell.binary, &reply.body)
                                        .is_some_and(|got| outputs_match(&got, want)),
                                );
                            }
                            trips.push(RoundTrip {
                                cell: c,
                                us,
                                completed_s: started.elapsed().as_secs_f64(),
                                sent: cell.message.len(),
                                received: reply.body.len(),
                            });
                        }
                        (trips, tally)
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("generator thread"))
                .collect()
        });
        let mut tally = Tally::default();
        let mut trips = Vec::new();
        for (t, each) in per_thread {
            tally.merge(&each);
            trips.extend(t);
        }
        (trips, tally)
    }

    /// Median latency in µs of `reps` direct `submit` + `wait` calls on
    /// `model` — the same request without the network edge.
    fn direct_p50_us(&self, model: &Model, reps: usize) -> f64 {
        probe_us(reps, || {
            self.service
                .submit(&model.handle, model.inputs.clone())
                .and_then(|ticket| ticket.wait())
                .expect("direct submit")
        })
    }
}

impl Workload for EdgeHttp {
    fn run(&mut self, seconds: f64) -> Samples {
        let check_all = self.traced;
        let (trips, tally) = self.drive(|elapsed, _| elapsed < seconds, check_all);
        let mut samples = Samples::new(self.cells.len());
        for t in &trips {
            samples.lat_us[t.cell].push(t.us);
        }
        let completions: Vec<f64> = trips.iter().map(|t| t.completed_s).collect();
        samples.slice_by_wall(&completions, seconds);
        samples.tally = tally;
        samples.bytes = trips
            .iter()
            .fold((0, 0), |(s, r), t| (s + t.sent, r + t.received));
        samples
    }

    fn layers(&mut self, phases: &Phases, report: &mut Report) {
        const REPS: usize = 30;
        let limits = Limits::default();
        let rtt = &phases.traced.lat_us;
        // Per cell: the wire functions and the HTTP framing on the cell's
        // own payloads, in memory, then what is left of the round trip.
        // Indexed by `usize::from(cell.binary)`.
        let mut parse_us = [Vec::new(), Vec::new()];
        let mut encode_us = [Vec::new(), Vec::new()];
        let (mut read_us, mut write_us) = (Vec::new(), Vec::new());
        let (mut overheads, mut unattributed) = (Vec::new(), Vec::new());
        let (mut slow, mut trips) = (0usize, 0usize);
        let direct: Vec<f64> = self
            .models
            .iter()
            .map(|m| self.direct_p50_us(m, REPS))
            .collect();
        for (c, cell) in self.cells.iter().enumerate() {
            let model = &self.models[cell.program];
            let response = Response {
                outputs: model.reference.clone(),
                coalesced: 1,
                stats: ExecStats::default(),
            };
            let (parse, encode, reply_body) = if cell.binary {
                (
                    probe_us(REPS, || {
                        parse_infer_binary(&cell.body).expect("own encoding")
                    }),
                    probe_us(REPS, || {
                        encode_response_binary(&response).expect("encodable")
                    }),
                    encode_response_binary(&response).expect("encodable"),
                )
            } else {
                let text = std::str::from_utf8(&cell.body).expect("JSON body");
                (
                    probe_us(REPS, || parse_infer(text).expect("own encoding")),
                    probe_us(REPS, || encode_response(&response).expect("encodable")),
                    encode_response(&response).expect("encodable").into_bytes(),
                )
            };
            parse_us[usize::from(cell.binary)].push(parse);
            encode_us[usize::from(cell.binary)].push(encode);

            let read = probe_us(REPS, || {
                net_http::read_request(&mut BufReader::new(&cell.message[..]), &limits)
                    .expect("well-formed")
            });
            let write = probe_us(REPS, || {
                let mut out = Vec::with_capacity(reply_body.len() + 128);
                net_http::write_response(
                    &mut out,
                    200,
                    content_type(cell.binary),
                    &reply_body,
                    true,
                )
                .expect("in-memory write");
                out
            });
            read_us.push(read);
            write_us.push(write);

            let overhead = median(&rtt[c]) - direct[cell.program];
            overheads.push(overhead);
            unattributed.push(overhead - parse - encode - read - write);
            slow += rtt[c]
                .iter()
                .filter(|&&us| us > SLOW_FACTOR * direct[cell.program])
                .count();
            trips += rtt[c].len();
        }
        report.set("net.parse_json_p50_us", geomean(&parse_us[0]));
        report.set("net.parse_binary_p50_us", geomean(&parse_us[1]));
        report.set("net.encode_response_json_p50_us", geomean(&encode_us[0]));
        report.set("net.encode_response_binary_p50_us", geomean(&encode_us[1]));
        report.set("net.http_read_request_p50_us", geomean(&read_us));
        report.set("net.http_write_response_p50_us", geomean(&write_us));
        let rtt_of = |binary: bool| {
            let medians: Vec<f64> = self
                .cells
                .iter()
                .zip(rtt)
                .filter(|(cell, _)| cell.binary == binary)
                .map(|(_, us)| median(us))
                .collect();
            geomean(&medians)
        };
        report.set("net.rtt_json_p50_us", rtt_of(false));
        report.set("net.rtt_binary_p50_us", rtt_of(true));
        // Differences can be negative, so they are averaged, not geomeaned.
        report.set("net.edge_overhead_p50_us", mean(&overheads));
        report.set("net.unattributed_p50_us", mean(&unattributed));
        report.set("net.slow_rtt_share", slow as f64 / trips as f64);
        let (sent, received) = phases.traced.bytes;
        report.set("net.request_bytes_per_op", sent as f64 / trips as f64);
        report.set("net.response_bytes_per_op", received as f64 / trips as f64);
        let client = &mut self.clients[0];
        let scrape = http::message("GET", "/metrics", "text/plain", b"");
        report.set(
            "net.metrics_scrape_p50_us",
            probe_us(REPS, || client.round_trip(&scrape).expect("scrape")),
        );
    }

    fn join_spans(&self, spans: &mut [SpanRecord]) -> usize {
        crate::trace::join_by_containment(spans)
    }

    fn shutdown(self: Box<Self>) {
        let EdgeHttp {
            service,
            gateway,
            clients,
            ..
        } = *self;
        // Closing the connections lets the handler threads end.
        drop(clients);
        gateway.shutdown();
        if let Ok(service) = Arc::try_unwrap(service) {
            service.shutdown();
        }
    }
}
