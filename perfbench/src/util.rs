//! Small shared pieces: result digests, order statistics, metric records,
//! the host fingerprint and peak memory.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ft_bench::experiment::PointResult;
use ft_platform::clock::Stopwatch;
use ft_sim::Protocol;

/// FNV-1a over 64-bit words: a stable, dependency-free digest of result
/// bit patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

pub fn protocol_tag(p: Protocol) -> u64 {
    match p {
        Protocol::PurePeriodicCkpt => 1,
        Protocol::BiPeriodicCkpt => 2,
        Protocol::AbftPeriodicCkpt => 3,
    }
}

/// Digest of every bit of one sweep task result.
pub fn point_digest(r: &PointResult) -> u64 {
    let mut d = Digest::default();
    d.word(r.index as u64);
    d.word(protocol_tag(r.protocol));
    d.f64(r.model_waste);
    d.f64(r.expected_failures);
    match r.sim {
        Some(s) => {
            d.word(1);
            d.word(protocol_tag(s.protocol));
            d.word(s.replications as u64);
            for x in [
                s.mean_waste,
                s.std_waste,
                s.ci95_waste,
                s.mean_final_time,
                s.mean_failures,
            ] {
                d.f64(x);
            }
        }
        None => d.word(0),
    }
    match r.paired {
        Some(p) => {
            d.word(1);
            d.word(protocol_tag(p.baseline));
            d.f64(p.mean);
            d.f64(p.ci95);
        }
        None => d.word(0),
    }
    d.value()
}

/// Combines per-item digests into one.
pub fn combine(parts: impl IntoIterator<Item = u64>) -> u64 {
    let mut d = Digest::default();
    for p in parts {
        d.word(p);
    }
    d.value()
}

/// How many per-item digests differ from the reference, counting missing
/// or extra items as different.
pub fn mismatches(got: &[u64], want: &[u64]) -> u64 {
    let differing = got.iter().zip(want).filter(|(a, b)| a != b).count();
    (differing + got.len().abs_diff(want.len())) as u64
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (0 when empty).
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

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Times `f` and returns its result with the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let sw = Stopwatch::start();
    let out = f();
    (out, sw.elapsed_seconds())
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// An ordered metric record.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(value),
                m.unit
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        let s = format!("{x}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Per-pass layer samples: one map of named values per traced pass.
#[derive(Debug, Default)]
pub struct LayerSamples {
    pub sets: Vec<BTreeMap<&'static str, f64>>,
}

impl LayerSamples {
    /// The median of `name` across the traced passes.
    pub fn median(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .sets
            .iter()
            .filter_map(|s| s.get(name).copied())
            .collect();
        median(&v)
    }

    /// Whether every count named in `counts` is identical in every pass.
    pub fn counts_repeat(&self, counts: &[&str]) -> bool {
        counts.iter().all(|name| {
            let mut values = self
                .sets
                .iter()
                .map(|s| s.get(name).copied().map(f64::to_bits));
            let first = values.next().flatten();
            values.all(|v| v == first)
        })
    }
}

/// Seconds a fixed, memory-free arithmetic kernel takes on this core: a
/// probe of the host's current speed.  Every record carries one probe from
/// before and one from after the workload, so that host-level drift (clock
/// frequency, a busy sibling hyperthread) can be told apart from a change
/// in the code.
pub fn host_probe_s() -> f64 {
    let sw = Stopwatch::start();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f64;
    for _ in 0..2_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += ((x >> 11) as f64 * (1.0 / (1u64 << 53) as f64) + 1e-300).ln();
    }
    std::hint::black_box(acc);
    sw.elapsed_seconds()
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host fingerprint recorded next to every result.
pub fn host_json(threads: usize, rustc: &str, commit: &str) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_default()
    };
    let model = field("model name");
    let flags = field("flags");
    let has = |f: &str| flags.split_whitespace().any(|x| x == f);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": {}, \"avx2\": {}, \"fma\": {}, \"avx512f\": {}, \
         \"rustc\": {}, \"commit\": {}, \"threads\": {threads}}}",
        json_str(&model),
        has("avx2"),
        has("fma"),
        has("avx512f"),
        json_str(rustc),
        json_str(commit),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn digests_see_every_bit() {
        let mut a = Digest::default();
        a.f64(0.1);
        let mut b = Digest::default();
        b.f64(f64::from_bits(0.1f64.to_bits() ^ 1));
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_num(2.0), "2.0");
        assert_eq!(json_num(0.123456789012), "0.123456789012");
        assert_eq!(json_num(f64::NAN), "0.0");
    }
}
