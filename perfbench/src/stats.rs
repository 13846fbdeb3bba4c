//! Small measurement helpers: quantiles, peak RSS, the in-memory span
//! recorder, and the parser for the admin plane's Prometheus dump.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Quantile `q` of `values` by linear interpolation between closest
/// ranks (0 for an empty slice). Sorts a copy.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values` (0 for an empty slice).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean of `values` (0 for an empty slice).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Milliseconds in a duration.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `f` and return its result with the wall time it took, in ms.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ms(t.elapsed()))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Counters, gauges and histogram summaries parsed from the admin
/// plane's Prometheus text. A coordinator concatenates one dump per
/// shard; the first value seen for a name wins.
#[must_use]
pub fn parse_prometheus(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        if let (Some(name), Some(value)) = (parts.next(), parts.next()) {
            if let Ok(v) = value.parse::<f64>() {
                out.entry(name.to_string()).or_insert(v);
            }
        }
    }
    out
}

/// One recorded span: a call into one layer, timed from outside.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The span that caused this one (the workload request or phase).
    pub parent: Option<u64>,
    /// Layer boundary name, e.g. `read.keyword` or `build.extract.tus`.
    pub name: String,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

/// In-memory span recorder. Spans are kept until the run ends and then
/// written out as JSON lines. A disabled recorder records nothing.
pub struct Spans {
    enabled: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    /// A recorder; `enabled` is the run's `--trace` flag.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh span id, so children can name a parent that is recorded
    /// after them (0 when disabled).
    pub fn reserve(&self) -> u64 {
        if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Record span `id`, which started at `start` and lasted `dur`.
    pub fn record_as(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &str,
        start: Instant,
        dur: Duration,
    ) {
        if !self.enabled {
            return;
        }
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Span {
                id,
                parent: parent.filter(|p| *p > 0),
                name: name.to_string(),
                start_ns: start.saturating_duration_since(self.t0).as_nanos() as u64,
                dur_ns: dur.as_nanos() as u64,
            });
    }

    /// Record a new span; returns its id (0 when disabled).
    pub fn record(&self, parent: Option<u64>, name: &str, start: Instant, dur: Duration) -> u64 {
        let id = self.reserve();
        self.record_as(id, parent, name, start, dur);
        id
    }

    /// Run `f` inside span `id`; returns its result and duration in ms.
    pub fn time_as<T>(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let t = Instant::now();
        let out = f();
        let dur = t.elapsed();
        self.record_as(id, parent, name, t, dur);
        (out, ms(dur))
    }

    /// Run `f` inside a new span; returns its result and duration in ms.
    pub fn time<T>(&self, parent: Option<u64>, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        self.time_as(self.reserve(), parent, name, f)
    }

    /// Write every span as one JSON object per line.
    ///
    /// # Errors
    /// I/O errors creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        let spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                s.id, parent, s.name, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert!((median(&v) - 2.5).abs() < 1e-12);
        assert!((quantile(&v, 1.0) - 4.0).abs() < 1e-12);
        assert!((quantile(&v, 0.0) - 1.0).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn prometheus_first_value_wins() {
        let m = parse_prometheus("# shard 0\na_b 3\n# shard 1\na_b 5\nh{quantile=\"0.5\"} 2\n");
        assert_eq!(m.get("a_b"), Some(&3.0));
        assert_eq!(m.get("h{quantile=\"0.5\"}"), Some(&2.0));
    }
}
