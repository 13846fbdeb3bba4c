//! `ingest`: a durable server over a 500-table base store. One
//! connection sends `IngestTable` frames of fresh tables with a `Reload`
//! after every eighth write and a final `Snapshot`; a second connection
//! reads the 8-family mix meanwhile.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use td_core::{
    DiscoveryPipeline, PipelineConfig, PipelineContext, PipelineSegment, TableArtifacts,
};
use td_serve::{
    boot, canonical_bytes, execute, serving_snapshot, Client, IngestReply, Reply, Request,
    RequestEnvelope, Server,
};
use td_table::{Table, TableId};

use crate::build::{extract_table, merge_pipeline, BuildTimes, Recorder};
use crate::drive::{call, closed_loop, Sample};
use crate::report::{f3, Outcome};
use crate::requests::{lake, take, MixSource};
use crate::served::{
    admin, codec_by_family, exact_counts, expected_bytes, served_chain, server_config, Distinct,
};
use crate::stats::{median, ms, peak_rss_mb, quantile, timed, Spans};
use crate::{mix, RunArgs, EXACT_PREFIX, INGEST_SETUPS, RELOAD_EVERY, WORKERS};

/// Where runs keep their scratch files, relative to the working
/// directory.
#[must_use]
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Bytes of the newest snapshot plus the WAL in a store directory.
fn store_bytes(dir: &Path) -> u64 {
    let mut newest: Option<(String, u64)> = None;
    let mut wal = 0;
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = entry.file_name().to_string_lossy().to_string();
        let len = entry.metadata().map_or(0, |m| m.len());
        if name == "pipeline.wal" {
            wal = len;
        } else if name.starts_with("snapshot-")
            && name.ends_with(".tds")
            && newest.as_ref().is_none_or(|(n, _)| name > *n)
        {
            newest = Some((name, len));
        }
    }
    newest.map_or(0, |(_, len)| len) + wal
}

/// What the writer connection saw.
#[derive(Default)]
struct WriteLog {
    /// `IngestTable` samples, one per fresh table, in order.
    writes: Vec<Sample>,
    /// Span id of each write (0 when untraced).
    write_spans: Vec<u64>,
    /// `Reload` samples, in order.
    reloads: Vec<Sample>,
    /// The final `Snapshot`.
    snapshot: Option<Sample>,
    /// WAL bytes just before the final `Snapshot`.
    wal_bytes: u64,
}

fn send(client: &mut Client, id: u64, req: Request) -> Sample {
    let family = req.endpoint();
    let env = RequestEnvelope {
        id,
        deadline_ms: 0,
        req,
    };
    let start = Instant::now();
    let (raw, ok) = call(client, &env);
    let end = Instant::now();
    Sample {
        seq: id as usize - 1,
        family,
        start,
        end,
        rtt_ms: ms(end - start),
        raw,
        ok,
    }
}

/// Envelope ids of the writer connection start here, clear of reads.
const WRITE_IDS: u64 = 1 << 32;

fn writer(addr: SocketAddr, fresh: &[(TableId, Table)], dir: &Path, spans: &Spans) -> WriteLog {
    let mut log = WriteLog::default();
    let Ok(mut client) = Client::connect(addr) else {
        return log;
    };
    let mut id = WRITE_IDS;
    for (w, (tid, table)) in fresh.iter().enumerate() {
        id += 1;
        let s = send(
            &mut client,
            id,
            Request::IngestTable {
                id: *tid,
                table: table.clone(),
            },
        );
        log.write_spans
            .push(spans.record(None, "write", s.start, s.end - s.start));
        log.writes.push(s);
        if (w + 1) % RELOAD_EVERY == 0 {
            id += 1;
            log.reloads.push(send(&mut client, id, Request::Reload));
        }
    }
    log.wal_bytes = std::fs::metadata(dir.join("pipeline.wal")).map_or(0, |m| m.len());
    id += 1;
    log.snapshot = Some(send(&mut client, id, Request::Snapshot));
    log
}

/// Run `ingest`.
#[must_use]
pub fn run(args: &RunArgs, spans: &Spans) -> Outcome {
    let mut out = Outcome::default();
    let scale = args.scale;
    let base = lake(mix(args.seed, 1), scale.ingest_base);
    let fresh: Vec<(TableId, Table)> = lake(mix(args.seed, 2), scale.ingest_writes)
        .lake
        .iter()
        .enumerate()
        .map(|(i, (_, t))| (TableId((scale.ingest_base + i) as u32), t.clone()))
        .collect();
    let cfg = PipelineConfig::default();
    let root = out_dir().join(format!("ingest-{}-{}", args.seed, std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server_dir = root.join("server");
    let mirror_dir = root.join("mirror");

    // The base store is an input: built and checkpointed before set-up.
    // In a traced run its extraction, the set-up's context and a
    // component-wise replay of the serving merge make up the build chain.
    let build_id = spans.reserve();
    let mut rec = Recorder {
        spans,
        parent: Some(build_id),
        times: BuildTimes::default(),
    };
    let prep_start = Instant::now();
    {
        let ctx = PipelineContext::new(&base.registry, &[], &cfg);
        let (mut durable, _) = boot(&server_dir, ctx.clone()).expect("open the base store");
        for (id, t) in base.lake.iter() {
            let artifacts = extract_table(t, &ctx, &mut rec);
            durable
                .ingest_artifacts(id, artifacts)
                .expect("log a base table");
        }
        durable.checkpoint().expect("checkpoint the base store");
    }
    let prep = prep_start.elapsed();
    copy_dir(&server_dir, &mirror_dir).expect("copy the base store");

    let setups = if args.trace { 1 } else { INGEST_SETUPS };
    let mut setup_s = Vec::new();
    let mut restore_ms = Vec::new();
    let mut server: Option<Server> = None;
    let mut setup = Duration::ZERO;
    for _ in 0..setups {
        drop(server.take());
        let start = Instant::now();
        let ctx = rec.context(|| PipelineContext::new(&base.registry, &[], &cfg));
        let (durable, rstats) = boot(&server_dir, ctx).expect("restore the store");
        let booted = start.elapsed();
        if args.trace {
            // Outside the set-up window.
            let p = durable.pipeline();
            let mut segs: Vec<&PipelineSegment> = p.sealed_segments().iter().collect();
            if !p.delta_segment().is_empty() {
                segs.push(p.delta_segment());
            }
            drop(merge_pipeline(&segs, p.tombstones(), p.context(), &mut rec));
        }
        let start = Instant::now();
        let s = Server::start_durable(durable, server_config(WORKERS)).expect("bind");
        setup = booted + start.elapsed();
        setup_s.push(setup.as_secs_f64());
        restore_ms.push(rstats.restore_ms);
        server = Some(s);
    }
    let mut server = server.expect("at least one set-up");
    out.end_to_end.insert("setup_s".into(), median(&setup_s));
    spans.record_as(build_id, None, "build", prep_start, prep + setup);
    if args.trace {
        out.build_chain(
            "base store (extract + log) + restore + Server::start_durable",
            ms(prep + setup),
            &rec.times,
        );
    }

    let addr = server.local_addr();
    let before = admin(addr);
    let end = Instant::now() + args.seconds;
    let writer_done = AtomicBool::new(false);
    let mut source = MixSource::new(&base.lake, args.seed);
    let (reads, log) = std::thread::scope(|s| {
        let w = s.spawn(|| {
            let log = writer(addr, &fresh, &server_dir, spans);
            writer_done.store(true, Ordering::SeqCst);
            log
        });
        let reads = closed_loop(
            addr,
            1,
            &mut source,
            &|| Instant::now() < end || !writer_done.load(Ordering::SeqCst),
            spans,
        );
        (reads, w.join().expect("writer thread panicked"))
    });
    out.end_to_end.insert("rss_peak_mb".into(), peak_rss_mb());
    let after = admin(addr);
    server.shutdown();
    drop(server);
    out.reads(&reads.samples, reads.elapsed_s);

    // Writes, reloads and the final snapshot, counted as planned so a
    // writer that could not finish its schedule shows as failures.
    let planned = fresh.len() + fresh.len() / RELOAD_EVERY + 1;
    let ok = log
        .writes
        .iter()
        .chain(&log.reloads)
        .chain(log.snapshot.as_ref())
        .filter(|s| s.ok)
        .count();
    out.attempted += planned as u64;
    out.failed += planned.saturating_sub(ok) as u64;
    let write_rtts: Vec<f64> = log
        .writes
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.rtt_ms)
        .collect();
    let (write_p50, write_p90) = (median(&write_rtts), quantile(&write_rtts, 0.9));
    let input_bytes: usize = base
        .lake
        .iter()
        .map(|(_, t)| t)
        .chain(fresh.iter().map(|(_, t)| t))
        .map(|t| td_table::csv::write_table(t).len())
        .sum();
    let bytes_ratio = store_bytes(&server_dir) as f64 / input_bytes.max(1) as f64;
    out.detail.insert("write_p50_ms".into(), write_p50);
    out.detail.insert("write_p90_ms".into(), write_p90);
    out.detail.insert("writes".into(), log.writes.len() as f64);
    out.detail
        .insert("store_bytes_per_input_byte".into(), bytes_ratio);

    // Oracle: a mirror of the base store replaying the same writes,
    // with one serving snapshot per epoch.
    let ctx = PipelineContext::new(&base.registry, &[], &cfg);
    let (mut mirror, _) = boot(&mirror_dir, ctx).expect("open the mirror store");
    let (s0, m0) = timed(|| serving_snapshot(&mirror));
    let mut epochs: Vec<Arc<DiscoveryPipeline>> = vec![s0];
    let (mut extract_ms, mut log_ms, mut merge_ms) = (Vec::new(), Vec::new(), vec![m0]);
    let mut write_divergences = 0u64;
    for (w, (tid, table)) in fresh.iter().enumerate() {
        let parent = log.write_spans.get(w).copied().filter(|id| *id > 0);
        let (artifacts, e) = spans.time(parent, "ingest.extract", || {
            TableArtifacts::extract(table, mirror.pipeline().context())
        });
        let (r, l) = spans.time(parent, "ingest.log_apply", || {
            mirror.ingest_artifacts(*tid, artifacts)
        });
        r.expect("mirror ingest");
        extract_ms.push(e);
        log_ms.push(l);
        // The merge the server stages after each write; untraced runs
        // only need the snapshots the reloads promote.
        let epoch_end = (w + 1) % RELOAD_EVERY == 0;
        if args.trace || epoch_end {
            let (snap, m) = spans.time(parent, "ingest.merge", || serving_snapshot(&mirror));
            merge_ms.push(m);
            if epoch_end {
                epochs.push(snap);
            }
        }
        if let Some(s) = log.writes.get(w) {
            let want = Reply::Ingested(IngestReply {
                tables: (scale.ingest_base + w + 1) as u64,
                wal_records: w as u64 + 1,
                staged: true,
            });
            if s.ok && s.raw != expected_bytes(s.seq as u64 + 1, &want) {
                write_divergences += 1;
            }
        }
    }
    for (e, s) in log.reloads.iter().enumerate() {
        if s.ok && s.raw != expected_bytes(s.seq as u64 + 1, &Reply::Reloaded(e as u64 + 1)) {
            write_divergences += 1;
        }
    }
    let (_, checkpoint_ms) = timed(|| mirror.checkpoint().expect("mirror checkpoint"));
    drop(mirror);

    // A read may overlap a reload: it must match the epoch before or
    // after every reload it overlaps.
    let mut distinct = Distinct::default();
    let mut memo: HashMap<(usize, usize), (Reply, f64)> = HashMap::new();
    let mut read_divergences = 0u64;
    for s in reads.samples.iter().filter(|s| s.ok) {
        let req = &reads.issued[s.seq];
        let d = distinct.add(req);
        let lo = log.reloads.iter().filter(|r| r.end <= s.start).count();
        let hi = log.reloads.iter().filter(|r| r.start < s.end).count();
        let matched = (lo..=hi.min(epochs.len() - 1)).any(|e| {
            let (reply, _) = memo
                .entry((e, d))
                .or_insert_with(|| timed(|| execute(&epochs[e], req)));
            expected_bytes(s.seq as u64 + 1, reply) == s.raw
        });
        if !matched {
            read_divergences += 1;
        }
    }
    out.divergences = write_divergences + read_divergences;
    let _ = std::fs::remove_dir_all(&root);

    let prefix = take(&mut MixSource::new(&base.lake, args.seed), EXACT_PREFIX);
    out.sequence = prefix
        .iter()
        .map(|r| canonical_bytes(r).expect("encodes"))
        .collect();
    if args.trace {
        let prefix_replies: Vec<Reply> = prefix.iter().map(|r| execute(&epochs[0], r)).collect();
        exact_counts(&mut out, &epochs[0], &prefix, &prefix_replies);
        let execs: Vec<(&'static str, f64)> = memo
            .iter()
            .map(|((_, d), (_, t))| (distinct.requests[*d].endpoint(), *t))
            .collect();
        let replies: Vec<Reply> = distinct
            .requests
            .iter()
            .map(|r| execute(&epochs[0], r))
            .collect();
        let codec = codec_by_family(distinct.requests.iter().zip(&replies));
        served_chain(&mut out, &reads.samples, &codec, &execs, &before, &after);

        let reload_ms = after.metric("serve_reload_latency_ns{quantile=\"0.5\"}") / 1e6;
        let (extract, log_apply, merge) = (median(&extract_ms), median(&log_ms), median(&merge_ms));
        let unattributed = write_p50 - extract - log_apply - merge;
        out.layer("ingest.write_p50_ms", write_p50);
        out.layer("ingest.write_p90_ms", write_p90);
        out.layer("ingest.extract_ms", extract);
        out.layer("ingest.log_apply_ms", log_apply);
        out.layer("ingest.merge_ms", merge);
        out.layer("ingest.reload_ms", reload_ms);
        out.layer("ingest.unattributed_ms", unattributed);
        out.layer("store.checkpoint_ms", checkpoint_ms);
        out.layer("store.restore_ms", median(&restore_ms));
        out.layer(
            "store.wal_bytes_per_table",
            log.wal_bytes as f64 / fresh.len().max(1) as f64,
        );
        out.layer("store.bytes_per_input_byte", bytes_ratio);
        out.table(
            "write chain (p50 per IngestTable, ms): write = extract + log_apply + merge + unattributed",
            &["part", "ms"],
            &[
                vec!["write (client RTT)".into(), f3(write_p50)],
                vec!["ingest.extract".into(), f3(extract)],
                vec!["ingest.log_apply".into(), f3(log_apply)],
                vec!["ingest.merge".into(), f3(merge)],
                vec!["unattributed".into(), f3(unattributed)],
                vec![
                    format!("ingest.reload (once per {RELOAD_EVERY} writes, server side)"),
                    f3(reload_ms),
                ],
                vec!["store.checkpoint (final Snapshot)".into(), f3(checkpoint_ms)],
                vec!["store.restore (set-up)".into(), f3(median(&restore_ms))],
            ],
        );
    }
    out
}
