//! `sharded`: the 2,000-table lake split over two shard servers (one
//! worker each) behind a scatter-gather `CoordServer`, two closed-loop
//! connections sending the 8-family mix. Flat Starmie backend, because
//! per-shard HNSW graphs are not byte-identical to one graph.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use td_core::union::VectorBackend;
use td_core::{DiscoveryPipeline, PipelineConfig, PipelineContext, SegmentView};
use td_serve::{
    canonical_bytes, CoordServer, CoordServerConfig, Coordinator, Reply, Request, RequestEnvelope,
    ShardFleet,
};
use td_shard::{ShardMap, ShardedPipeline};
use td_table::{Table, TableId};

use crate::build::{build_pipeline, BuildTimes, Recorder};
use crate::drive::{closed_loop, Sample};
use crate::report::Outcome;
use crate::requests::{lake, take, MixSource};
use crate::served::{
    admin, codec_by_family, exact_counts, execute_all, execute_by_family, expected_bytes,
    per_family, read_weighted, rtt_chain, serve_counters, server_config, service_by_family,
    Distinct, ServerSide,
};
use crate::stats::{median, parse_prometheus, peak_rss_mb, timed, Spans};
use crate::{RunArgs, CONNECTIONS, EXACT_PREFIX, SETUPS, SHARDS};

/// Run one request on the socket-free sharded pipeline.
fn sharded_search(sp: &ShardedPipeline, req: &Request) {
    match req {
        Request::Keyword { query, k } => drop(sp.search_keyword(query, *k)),
        Request::Joinable { column, k } => drop(sp.search_joinable(column, *k)),
        Request::Unionable { table, k } => drop(sp.search_unionable(table, *k)),
        Request::UnionableSemantic { table, k } => drop(sp.search_unionable_semantic(table, *k)),
        Request::UnionableRelationship { table, k } => {
            drop(sp.search_unionable_relationship(table, *k));
        }
        Request::FuzzyJoinable { column, tau, k } => {
            drop(sp.search_fuzzy_joinable(column, *tau, *k));
        }
        Request::MultiJoinable { table, key_cols, k } => {
            drop(sp.search_multi_joinable(table, key_cols, *k));
        }
        Request::Correlated { key, numeric, k } => drop(sp.search_correlated(key, numeric, *k)),
        _ => {}
    }
}

/// Scatter phases the coordinator has run, from its `MetricsDump`.
fn scatter_rounds(coord: &Coordinator) -> f64 {
    let resp = coord.handle(&RequestEnvelope {
        id: 0,
        deadline_ms: 0,
        req: Request::MetricsDump,
    });
    match resp.reply {
        Some(Reply::Metrics(m)) => parse_prometheus(&m.prometheus)
            .get("coord_fanout_latency_ns_count")
            .copied()
            .unwrap_or(0.0),
        _ => 0.0,
    }
}

/// Run `sharded`.
#[must_use]
pub fn run(args: &RunArgs, spans: &Spans) -> Outcome {
    let mut out = Outcome::default();
    let gl = lake(args.seed, args.scale.lake_tables);
    let mut cfg = PipelineConfig::default();
    cfg.starmie.backend = VectorBackend::Flat;
    let tables: Vec<(TableId, Table)> = gl.lake.iter().map(|(id, t)| (id, t.clone())).collect();
    let setups = if args.trace { 1 } else { SETUPS };

    let mut setup_s = Vec::new();
    let mut serving: Option<(CoordServer, ShardFleet)> = None;
    let (mut setup_id, mut parent_ms) = (0, 0.0);
    for _ in 0..setups {
        drop(serving.take());
        setup_id = spans.reserve();
        let (served, setup_ms) = spans.time_as(setup_id, None, "setup", || {
            let ctx = PipelineContext::new(&gl.registry, &[], &cfg);
            let fleet = ShardFleet::start_partitioned(SHARDS, &ctx, &tables, &server_config(1))
                .expect("start the shard fleet");
            let front =
                CoordServer::start(Arc::new(fleet.coordinator()), CoordServerConfig::default())
                    .expect("bind the coordinator");
            (front, fleet)
        });
        parent_ms = setup_ms;
        setup_s.push(setup_ms / 1e3);
        serving = Some(served);
    }
    out.end_to_end.insert("setup_s".into(), median(&setup_s));
    let (mut front, mut fleet) = serving.expect("at least one set-up");

    // The traced run builds the shards again, one component at a time,
    // for attribution, and keeps the context for the in-process replays.
    let mut rec = Recorder {
        spans,
        parent: Some(setup_id),
        times: BuildTimes::default(),
    };
    let traced_ctx = args
        .trace
        .then(|| rec.context(|| PipelineContext::new(&gl.registry, &[], &cfg)));
    if let Some(ctx) = &traced_ctx {
        let map = ShardMap::new(SHARDS);
        for shard in 0..SHARDS {
            let view = SegmentView::new(
                tables
                    .iter()
                    .filter(|(id, _)| map.shard_of(*id) == shard)
                    .map(|(id, t)| (*id, t))
                    .collect(),
            );
            drop(build_pipeline(&view, ctx, &mut rec));
        }
        out.build_chain(
            "ShardFleet::start_partitioned + CoordServer::start",
            parent_ms,
            &rec.times,
        );
    }

    let addr = front.local_addr();
    let before = admin(addr);
    let mut source = MixSource::new(&gl.lake, args.seed);
    let end = Instant::now() + args.seconds;
    let run = closed_loop(
        addr,
        CONNECTIONS,
        &mut source,
        &|| Instant::now() < end,
        spans,
    );
    out.end_to_end.insert("rss_peak_mb".into(), peak_rss_mb());
    let after = admin(addr);
    let shard0 = fleet.server(0).map(|s| admin(s.local_addr()));
    out.reads(&run.samples, run.elapsed_s);

    let prefix = take(&mut MixSource::new(&gl.lake, args.seed), EXACT_PREFIX);
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

    // In-process coordinator and socket-free sharded search, traced only.
    let mut handle_ms = BTreeMap::new();
    let mut search_ms = BTreeMap::new();
    if let Some(ctx) = &traced_ctx {
        let coord = fleet.coordinator();
        let r0 = scatter_rounds(&coord);
        for req in &prefix {
            drop(coord.handle(&RequestEnvelope {
                id: 1,
                deadline_ms: 0,
                req: req.clone(),
            }));
        }
        let rounds = scatter_rounds(&coord) - r0;
        out.layer(
            "coord.rounds_per_query",
            rounds / prefix.len().max(1) as f64,
        );
        let handles: Vec<(&'static str, f64)> = distinct
            .requests
            .iter()
            .map(|req| {
                let env = RequestEnvelope {
                    id: 1,
                    deadline_ms: 0,
                    req: req.clone(),
                };
                (req.endpoint(), timed(|| coord.handle(&env)).1)
            })
            .collect();
        handle_ms = per_family(&handles, |h| h.0, |h| h.1);
        let mut sp = ShardedPipeline::with_context(SHARDS, ctx);
        for (id, t) in &tables {
            sp.ingest_table(*id, t);
        }
        drop(sp.snapshots());
        let searches: Vec<(&'static str, f64)> = distinct
            .requests
            .iter()
            .map(|req| (req.endpoint(), timed(|| sharded_search(&sp, req)).1))
            .collect();
        search_ms = per_family(&searches, |s| s.0, |s| s.1);
    }
    front.shutdown();
    fleet.shutdown();
    drop((front, fleet));

    // Oracle: the whole-lake pipeline on the same Flat backend.
    let oracle = DiscoveryPipeline::build(&gl.lake, &gl.registry, &[], &cfg);
    let replies = execute_all(&oracle, &distinct.requests);
    out.divergences = run
        .samples
        .iter()
        .zip(&sample_idx)
        .filter(|(s, &i)| s.ok && s.raw != expected_bytes(s.seq as u64 + 1, &replies[i].0))
        .count() as u64;

    if args.trace {
        let prefix_replies: Vec<Reply> = prefix_idx.iter().map(|&i| replies[i].0.clone()).collect();
        exact_counts(&mut out, &oracle, &prefix, &prefix_replies);
        let execs: Vec<(&'static str, f64)> = distinct
            .requests
            .iter()
            .zip(&replies)
            .map(|(r, (_, t))| (r.endpoint(), *t))
            .collect();
        let execute_ms = execute_by_family(&mut out, &execs);
        out.layer("core.execute_ms", read_weighted(&run.samples, &execute_ms));
        for (f, v) in &handle_ms {
            out.layer(&format!("coord.handle_ms.{f}"), *v);
        }
        for (f, v) in &search_ms {
            out.layer(&format!("shard.search_ms.{f}"), *v);
        }
        // The shard servers' own service time, for the families that
        // reach them as such (the rest arrive as shard-plane requests).
        if let Some(s0) = &shard0 {
            let service = service_by_family(&mut out, s0);
            out.layer("serve.service_ms", read_weighted(&run.samples, &service));
        }
        let codec = codec_by_family(distinct.requests.iter().zip(replies.iter().map(|r| &r.0)));
        let side = ServerSide {
            label: "coord.handle",
            server_ms: handle_ms.clone(),
            inner_label: "shard.search",
            inner_ms: search_ms,
        };
        rtt_chain(&mut out, &run.samples, &codec, &side);
        // coord.front_ms: client RTT minus in-process handle, per family,
        // weighted by each family's share of the reads.
        let ok: Vec<&Sample> = run.samples.iter().filter(|s| s.ok).collect();
        let rtts = per_family(&ok, |s| s.family, |s| s.rtt_ms);
        out.layer(
            "coord.front_ms",
            read_weighted(&run.samples, &rtts) - read_weighted(&run.samples, &handle_ms),
        );
        serve_counters(&mut out, &before, &after);
    }
    out
}
