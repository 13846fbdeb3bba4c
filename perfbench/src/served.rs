//! `lookup` and `scan`: one 2,000-table server, two closed-loop
//! connections. Also the pieces the other workloads share: the oracle
//! check, the admin-plane reads, and the round-trip chain.

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use td_core::{DiscoveryPipeline, PipelineConfig, PipelineContext, SegmentView};
use td_serve::{
    canonical_bytes, decode_request, decode_response, encode_response, execute, Client, Reply,
    Request, RequestEnvelope, ResponseEnvelope, Server, ServerConfig, StatsReply,
};
use td_table::Table;

use crate::build::{build_pipeline, BuildTimes, Recorder};
use crate::drive::{closed_loop, LoopResult, Sample};
use crate::report::{f3, families, Outcome};
use crate::requests::{lake, take, LookupSource, ScanSource, Source};
use crate::stats::{mean, median, parse_prometheus, peak_rss_mb, timed, Spans};
use crate::{RunArgs, WorkloadKind, CONNECTIONS, EXACT_PREFIX, SETUPS, WORKERS};

/// The server configuration every workload uses.
#[must_use]
pub fn server_config(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        ..ServerConfig::default()
    }
}

/// The distinct requests of a run, keyed by canonical bytes.
#[derive(Default)]
pub struct Distinct {
    /// Each distinct request once, in first-seen order.
    pub requests: Vec<Request>,
    index: HashMap<Vec<u8>, usize>,
}

impl Distinct {
    /// Index of `req`, adding it if new.
    pub fn add(&mut self, req: &Request) -> usize {
        let key = canonical_bytes(req).expect("generated requests encode");
        let next = self.requests.len();
        *self.index.entry(key).or_insert_with(|| {
            self.requests.push(req.clone());
            next
        })
    }
}

/// `execute` every request on `pipeline`, split over two threads.
/// Returns each reply with its in-process execution time in ms.
#[must_use]
pub fn execute_all(pipeline: &DiscoveryPipeline, reqs: &[Request]) -> Vec<(Reply, f64)> {
    let half = reqs.len().div_ceil(2);
    std::thread::scope(|s| {
        let handles: Vec<_> = reqs
            .chunks(half.max(1))
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|r| timed(|| execute(pipeline, r)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    })
}

/// The bytes a server answering `reply` to envelope `id` sends.
#[must_use]
pub fn expected_bytes(id: u64, reply: &Reply) -> Vec<u8> {
    encode_response(&ResponseEnvelope::ok(id, reply.clone())).expect("replies encode")
}

/// Admin-plane readings after the timed phase.
pub struct Admin {
    /// `Stats`.
    pub stats: StatsReply,
    /// `MetricsDump`, Prometheus text parsed to name → value.
    pub metrics: BTreeMap<String, f64>,
}

/// Read `Stats` and `MetricsDump` from a server or coordinator.
#[must_use]
pub fn admin(addr: SocketAddr) -> Admin {
    let mut c = Client::connect(addr).expect("admin connection");
    let mut ask = |req: Request| {
        c.call(&RequestEnvelope {
            id: 0,
            deadline_ms: 0,
            req,
        })
        .expect("admin request")
        .reply
    };
    let stats = match ask(Request::Stats) {
        Some(Reply::Stats(s)) => s,
        _ => StatsReply::default(),
    };
    let metrics = match ask(Request::MetricsDump) {
        Some(Reply::Metrics(m)) => parse_prometheus(&m.prometheus),
        _ => BTreeMap::new(),
    };
    Admin { stats, metrics }
}

impl Admin {
    /// Server-side service time p50 of one family, in ms.
    #[must_use]
    pub fn service_ms(&self, family: &str) -> f64 {
        self.stats
            .endpoints
            .iter()
            .find(|e| e.endpoint == family)
            .map_or(0.0, |e| e.p50_ns / 1e6)
    }

    /// A value from the metrics dump (0 if absent).
    #[must_use]
    pub fn metric(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }
}

/// Mean wire bytes per request and per reply (including the 4-byte
/// frame header) over `prefix`, whose replies are `replies`.
fn wire_bytes(prefix: &[Request], replies: &[Reply]) -> (f64, f64) {
    let mut req_bytes = Vec::new();
    let mut reply_bytes = Vec::new();
    for (i, (req, reply)) in prefix.iter().zip(replies).enumerate() {
        let env = RequestEnvelope {
            id: i as u64 + 1,
            deadline_ms: 0,
            req: req.clone(),
        };
        let bytes = serde_json::to_string(&env).expect("requests encode");
        req_bytes.push(bytes.len() as f64 + 4.0);
        reply_bytes.push(expected_bytes(i as u64 + 1, reply).len() as f64 + 4.0);
    }
    (mean(&req_bytes), mean(&reply_bytes))
}

/// Pairs verified over pairs visited by `FuzzyJoinSearch::search` for
/// the fuzzy requests in `prefix` (0 when there are none).
fn fuzzy_verified_ratio(pipeline: &DiscoveryPipeline, prefix: &[Request]) -> f64 {
    let (mut verified, mut visited) = (0usize, 0usize);
    for req in prefix {
        if let Request::FuzzyJoinable { column, tau, k } = req {
            let (_, stats) = pipeline.fuzzy_join.search(column, *tau, *k);
            verified += stats.pairs_verified;
            visited += stats.pairs_verified + stats.pairs_pruned;
        }
    }
    if visited == 0 {
        0.0
    } else {
        verified as f64 / visited as f64
    }
}

/// Client and front-end codec time for one request and its reply, in
/// µs: `(encode, decode)`, each the median of five repetitions.
fn codec_us(req: &Request, reply: &Reply) -> (f64, f64) {
    let env = RequestEnvelope {
        id: 1,
        deadline_ms: 0,
        req: req.clone(),
    };
    let resp = ResponseEnvelope::ok(1, reply.clone());
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let req_bytes = serde_json::to_string(&env).expect("requests encode");
        let reply_bytes = encode_response(&resp).expect("replies encode");
        enc.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let _ = std::hint::black_box(decode_request(req_bytes.as_bytes()));
        let _ = std::hint::black_box(decode_response(&reply_bytes));
        dec.push(t.elapsed().as_secs_f64() * 1e6);
    }
    (median(&enc), median(&dec))
}

/// The exact counts, over the first requests of the sequence (`prefix`,
/// answered by `pipeline` with `replies`): wire bytes and the fuzzy
/// verification ratio.
pub fn exact_counts(
    out: &mut Outcome,
    pipeline: &DiscoveryPipeline,
    prefix: &[Request],
    replies: &[Reply],
) {
    let (request_bytes, reply_bytes) = wire_bytes(prefix, replies);
    out.layer("wire.request_bytes", request_bytes);
    out.layer("wire.reply_bytes", reply_bytes);
    out.layer(
        "core.fuzzy.verified_ratio",
        fuzzy_verified_ratio(pipeline, prefix),
    );
}

/// `core.execute_ms.<family>`: median in-process execute time per
/// family over `(family, ms)` pairs.
pub fn execute_by_family(
    out: &mut Outcome,
    execs: &[(&'static str, f64)],
) -> BTreeMap<&'static str, f64> {
    let by = per_family(execs, |e| e.0, |e| e.1);
    for (f, v) in &by {
        out.layer(&format!("core.execute_ms.{f}"), *v);
    }
    by
}

/// `serve.service_ms.<family>` from a server's `Stats`.
pub fn service_by_family(out: &mut Outcome, adm: &Admin) -> BTreeMap<&'static str, f64> {
    let by: BTreeMap<&'static str, f64> =
        families().iter().map(|f| (*f, adm.service_ms(f))).collect();
    for (f, v) in &by {
        out.layer(&format!("serve.service_ms.{f}"), *v);
    }
    by
}

/// Median client + front-end codec time per family, in µs, over
/// request/reply pairs: `(encode, decode)`.
pub fn codec_by_family<'a>(
    pairs: impl Iterator<Item = (&'a Request, &'a Reply)>,
) -> BTreeMap<&'static str, (f64, f64)> {
    let codecs: Vec<(&'static str, (f64, f64))> = pairs
        .map(|(r, reply)| (r.endpoint(), codec_us(r, reply)))
        .collect();
    let enc = per_family(&codecs, |c| c.0, |c| c.1 .0);
    let dec = per_family(&codecs, |c| c.0, |c| c.1 .1);
    enc.into_iter().map(|(f, e)| (f, (e, dec[f]))).collect()
}

/// The server-side half of a family's round trip.
pub struct ServerSide {
    /// Label of the server-time column.
    pub label: &'static str,
    /// Server-side time p50 per family, in ms.
    pub server_ms: BTreeMap<&'static str, f64>,
    /// In-process time of the layer beneath per family (execute, or
    /// the socket-free sharded search), in ms.
    pub inner_label: &'static str,
    /// In-process inner time per family, in ms.
    pub inner_ms: BTreeMap<&'static str, f64>,
}

/// The RTT chain per family: RTT = wire encode + wire decode + server
/// time + unattributed. Sets the `wire.*` per-layer metrics and the
/// tracing overhead.
pub fn rtt_chain(
    out: &mut Outcome,
    samples: &[Sample],
    codec: &BTreeMap<&'static str, (f64, f64)>,
    side: &ServerSide,
) {
    let mut rows = Vec::new();
    let (mut n_all, mut enc_all, mut dec_all, mut unattr_all) = (0.0, 0.0, 0.0, 0.0);
    for f in families() {
        let rtts: Vec<f64> = samples
            .iter()
            .filter(|s| s.ok && s.family == f)
            .map(|s| s.rtt_ms)
            .collect();
        if rtts.is_empty() {
            continue;
        }
        let n = rtts.len() as f64;
        let rtt = median(&rtts);
        let (enc, dec) = codec.get(f).copied().unwrap_or((0.0, 0.0));
        let server = side.server_ms.get(f).copied().unwrap_or(0.0);
        let inner = side.inner_ms.get(f).copied().unwrap_or(0.0);
        let unattributed = rtt - enc / 1e3 - dec / 1e3 - server;
        n_all += n;
        enc_all += n * enc;
        dec_all += n * dec;
        unattr_all += n * unattributed;
        rows.push(vec![
            f.to_string(),
            format!("{}", rtts.len()),
            f3(rtt),
            f3(enc / 1e3),
            f3(dec / 1e3),
            f3(server),
            f3(inner),
            f3(unattributed),
        ]);
    }
    let w = |v: f64| if n_all > 0.0 { v / n_all } else { 0.0 };
    out.layer("wire.encode_us", w(enc_all));
    out.layer("wire.decode_us", w(dec_all));
    out.layer("wire.unattributed_ms", w(unattr_all));
    rows.push(vec![
        "weighted".into(),
        format!("{n_all}"),
        String::new(),
        f3(w(enc_all) / 1e3),
        f3(w(dec_all) / 1e3),
        String::new(),
        String::new(),
        f3(w(unattr_all)),
    ]);
    out.table(
        &format!(
            "RTT chain (p50 per family, ms): rtt = wire.encode + wire.decode + {} + unattributed; {} is the in-process layer beneath",
            side.label, side.inner_label
        ),
        &[
            "family",
            "n",
            "rtt",
            "wire.encode",
            "wire.decode",
            side.label,
            side.inner_label,
            "unattributed",
        ],
        &rows,
    );
    // Odd sequence positions carried a span; even ones did not. Compare
    // within each family, weighted by its share of the reads, so the
    // family mix of the two halves does not show up as overhead.
    let (mut weighted, mut n) = (0.0, 0.0);
    for f in families() {
        let half = |parity: usize| -> Vec<f64> {
            samples
                .iter()
                .filter(|s| s.ok && s.family == f && s.seq % 2 == parity)
                .map(|s| s.rtt_ms)
                .collect()
        };
        let (traced, plain) = (half(1), half(0));
        if traced.is_empty() || plain.is_empty() {
            continue;
        }
        let k = (traced.len() + plain.len()) as f64;
        weighted += k * (median(&traced) - median(&plain));
        n += k;
    }
    let overhead = if n > 0.0 { weighted / n } else { 0.0 };
    out.layer("trace.overhead_ms", overhead);
    out.text.push_str(&format!(
        "tracing overhead: traced minus untraced read p50, per family, weighted = {} ms\n",
        f3(overhead)
    ));
}

/// The traced metrics of a single-server workload: per-family and
/// read-weighted service and execute time, the serving layer's own
/// overhead (service − execute), the RTT chain, and the serve counters.
pub fn served_chain(
    out: &mut Outcome,
    samples: &[Sample],
    codec: &BTreeMap<&'static str, (f64, f64)>,
    execs: &[(&'static str, f64)],
    before: &Admin,
    after: &Admin,
) {
    let side = ServerSide {
        label: "serve.service",
        server_ms: service_by_family(out, after),
        inner_label: "core.execute",
        inner_ms: execute_by_family(out, execs),
    };
    let service = read_weighted(samples, &side.server_ms);
    let execute = read_weighted(samples, &side.inner_ms);
    out.layer("serve.service_ms", service);
    out.layer("core.execute_ms", execute);
    out.layer("serve.overhead_ms", service - execute);
    rtt_chain(out, samples, codec, &side);
    serve_counters(out, before, after);
}

/// Per-family median of `value` over `items`.
#[must_use]
pub fn per_family<T>(
    items: &[T],
    family: impl Fn(&T) -> &'static str,
    value: impl Fn(&T) -> f64,
) -> BTreeMap<&'static str, f64> {
    let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for it in items {
        by.entry(family(it)).or_default().push(value(it));
    }
    by.into_iter().map(|(f, v)| (f, median(&v))).collect()
}

/// Mean of a per-family value, weighted by each family's share of the
/// `Ok` reads.
#[must_use]
pub fn read_weighted(samples: &[Sample], by_family: &BTreeMap<&'static str, f64>) -> f64 {
    let ok: Vec<&Sample> = samples.iter().filter(|s| s.ok).collect();
    let total: f64 = ok
        .iter()
        .map(|s| by_family.get(s.family).copied().unwrap_or(0.0))
        .sum();
    total / ok.len().max(1) as f64
}

/// Run `lookup` or `scan`.
#[must_use]
pub fn run(args: &RunArgs, spans: &Spans) -> Outcome {
    let mut out = Outcome::default();
    let gl = lake(args.seed, args.scale.lake_tables);
    let cfg = PipelineConfig::default();
    let setups = if args.trace { 1 } else { SETUPS };

    let mut setup_s = Vec::new();
    let mut serving: Option<(Arc<DiscoveryPipeline>, Server)> = None;
    let (mut setup_id, mut parent_ms) = (0, 0.0);
    for _ in 0..setups {
        drop(serving.take());
        setup_id = spans.reserve();
        let (served, setup_ms) = spans.time_as(setup_id, None, "setup", || {
            let pipeline = Arc::new(DiscoveryPipeline::build(&gl.lake, &gl.registry, &[], &cfg));
            let server =
                Server::start(Arc::clone(&pipeline), server_config(WORKERS)).expect("bind");
            (pipeline, server)
        });
        parent_ms = setup_ms;
        setup_s.push(setup_ms / 1e3);
        serving = Some(served);
    }
    out.end_to_end.insert("setup_s".into(), median(&setup_s));
    let (pipeline, mut server) = serving.expect("at least one set-up");

    if args.trace {
        // The build again, one component at a time, for attribution.
        let mut rec = Recorder {
            spans,
            parent: Some(setup_id),
            times: BuildTimes::default(),
        };
        let ctx = rec.context(|| PipelineContext::new(&gl.registry, &[], &cfg));
        drop(build_pipeline(
            &SegmentView::of_lake(&gl.lake),
            &ctx,
            &mut rec,
        ));
        out.build_chain(
            "DiscoveryPipeline::build + Server::start",
            parent_ms,
            &rec.times,
        );
    }

    let tables: Vec<&Table> = gl.lake.iter().map(|(_, t)| t).collect();
    let make_source = || -> Box<dyn Source> {
        match args.workload {
            WorkloadKind::Lookup => Box::new(LookupSource::new(&tables, args.seed)),
            _ => Box::new(ScanSource::new(&tables, args.seed)),
        }
    };
    let mut source = make_source();
    let before = admin(server.local_addr());
    let end = Instant::now() + args.seconds;
    let run: LoopResult = closed_loop(
        server.local_addr(),
        CONNECTIONS,
        source.as_mut(),
        &|| Instant::now() < end,
        spans,
    );
    out.end_to_end.insert("rss_peak_mb".into(), peak_rss_mb());
    let adm = admin(server.local_addr());
    server.shutdown();
    out.reads(&run.samples, run.elapsed_s);

    // Oracle: the served pipeline itself, in process.
    let prefix = take(make_source().as_mut(), EXACT_PREFIX);
    out.sequence = prefix
        .iter()
        .map(|r| canonical_bytes(r).expect("encodes"))
        .collect();
    let mut distinct = Distinct::default();
    let prefix_idx: Vec<usize> = prefix.iter().map(|r| distinct.add(r)).collect();
    let sample_idx: Vec<usize> = run
        .samples
        .iter()
        .map(|s| distinct.add(&run.issued[s.seq]))
        .collect();
    let replies = execute_all(&pipeline, &distinct.requests);
    out.divergences = run
        .samples
        .iter()
        .zip(&sample_idx)
        .filter(|(s, &i)| s.ok && s.raw != expected_bytes(s.seq as u64 + 1, &replies[i].0))
        .count() as u64;

    if args.trace {
        let prefix_replies: Vec<Reply> = prefix_idx.iter().map(|&i| replies[i].0.clone()).collect();
        exact_counts(&mut out, &pipeline, &prefix, &prefix_replies);
        let execs: Vec<(&'static str, f64)> = distinct
            .requests
            .iter()
            .zip(&replies)
            .map(|(r, (_, t))| (r.endpoint(), *t))
            .collect();
        let codec = codec_by_family(distinct.requests.iter().zip(replies.iter().map(|r| &r.0)));
        served_chain(&mut out, &run.samples, &codec, &execs, &before, &adm);
    }
    out
}

/// The serve, cache and index counters every served workload reports,
/// as the change between two admin readings around the timed phase.
pub fn serve_counters(out: &mut Outcome, before: &Admin, after: &Admin) {
    let (b, a) = (&before.stats, &after.stats);
    let hits = a.cache_hits.saturating_sub(b.cache_hits) as f64;
    let misses = a.cache_misses.saturating_sub(b.cache_misses) as f64;
    let delta = |name: &str| after.metric(name) - before.metric(name);
    out.layer(
        "cache.hit_rate",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    out.layer(
        "cache.evictions",
        a.cache_evictions.saturating_sub(b.cache_evictions) as f64,
    );
    out.layer("serve.shed", a.shed.saturating_sub(b.shed) as f64);
    out.layer(
        "serve.deadline_expired",
        a.deadline_expired.saturating_sub(b.deadline_expired) as f64,
    );
    out.layer("serve.coalesced", delta("serve_batch_coalesced"));
    let executed = misses.max(1.0);
    out.layer(
        "index.hnsw_visits_per_query",
        delta("index_hnsw_nodes_visited") / executed,
    );
}
