//! The closed-loop load generator: each connection sends its next
//! request only after the previous reply has been read and decoded.

use std::net::SocketAddr;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use td_serve::{decode_response, Client, Request, RequestEnvelope, Status};

use crate::requests::Source;
use crate::stats::{ms, Spans};

/// One completed request as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Position in the workload's request sequence; the envelope id is
    /// `seq + 1`.
    pub seq: usize,
    /// Search family (`Request::endpoint`).
    pub family: &'static str,
    /// When the request was sent.
    pub start: Instant,
    /// When its reply had been read and decoded.
    pub end: Instant,
    /// Round-trip time in ms: encode, write, wait, read, decode.
    pub rtt_ms: f64,
    /// The raw reply payload (empty if the connection failed).
    pub raw: Vec<u8>,
    /// The reply arrived and carried `Status::Ok`.
    pub ok: bool,
}

/// What a closed loop produced: every sample, and every request issued
/// (indexed by sequence position).
pub struct LoopResult {
    /// Completed requests, in completion order per connection.
    pub samples: Vec<Sample>,
    /// `issued[seq]` is the request sent at position `seq`.
    pub issued: Vec<Request>,
    /// Wall time from the first send to the last reply, in seconds.
    pub elapsed_s: f64,
}

/// Send one envelope and decode the reply status. Returns the raw reply
/// (empty on a transport failure) and whether it was `Ok`.
#[must_use]
pub fn call(client: &mut Client, env: &RequestEnvelope) -> (Vec<u8>, bool) {
    match client.call_raw(env) {
        Ok(raw) => {
            let ok = decode_response(&raw).is_ok_and(|r| r.status == Status::Ok);
            (raw, ok)
        }
        Err(_) => (Vec::new(), false),
    }
}

fn connect(addr: SocketAddr, keep_going: &(dyn Fn() -> bool + Sync)) -> Option<Client> {
    loop {
        if let Ok(c) = Client::connect(addr) {
            return Some(c);
        }
        if !keep_going() {
            return None;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Drive `connections` closed-loop clients against `addr`, drawing
/// requests from `source` in sequence order, while `keep_going` holds.
/// In a traced run every odd sequence position records a `read` span,
/// so traced and untraced requests interleave under the same load and
/// their latency difference is the tracing overhead.
pub fn closed_loop(
    addr: SocketAddr,
    connections: usize,
    source: &mut dyn Source,
    keep_going: &(dyn Fn() -> bool + Sync),
    spans: &Spans,
) -> LoopResult {
    let shared = Mutex::new((source, Vec::<Request>::new()));
    let t0 = Instant::now();
    let per_conn: Vec<Vec<Sample>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|_| {
                let shared = &shared;
                s.spawn(move || {
                    let mut samples = Vec::new();
                    let Some(mut client) = connect(addr, keep_going) else {
                        return samples;
                    };
                    while keep_going() {
                        let (seq, req) = {
                            let mut g = shared.lock().unwrap_or_else(PoisonError::into_inner);
                            let req = g.0.next_request();
                            g.1.push(req.clone());
                            (g.1.len() - 1, req)
                        };
                        let family = req.endpoint();
                        let env = RequestEnvelope {
                            id: seq as u64 + 1,
                            deadline_ms: 0,
                            req,
                        };
                        let start = Instant::now();
                        let (raw, ok) = call(&mut client, &env);
                        let end = Instant::now();
                        if seq % 2 == 1 {
                            spans.record(None, &format!("read.{family}"), start, end - start);
                        }
                        let failed_transport = raw.is_empty();
                        samples.push(Sample {
                            seq,
                            family,
                            start,
                            end,
                            rtt_ms: ms(end - start),
                            raw,
                            ok,
                        });
                        if failed_transport {
                            match connect(addr, keep_going) {
                                Some(c) => client = c,
                                None => break,
                            }
                        }
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let samples: Vec<Sample> = per_conn.into_iter().flatten().collect();
    let last = samples.iter().map(|s| s.end).max().unwrap_or(t0);
    let issued = shared
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .1;
    LoopResult {
        samples,
        issued,
        elapsed_s: last.saturating_duration_since(t0).as_secs_f64(),
    }
}
