//! Small helpers: seeded randomness, workload values, statistics, the
//! host fingerprint and JSON output.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// splitmix64: a tiny seeded generator, so the op mix and the values
/// written are a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `true` with probability `percent / 100`.
    pub fn percent(&mut self, percent: u64) -> bool {
        self.next_u64() % 100 < percent
    }
}

/// The value client `writer` stores in its `seq`-th write (1-based):
/// a 12-byte header naming writer and sequence number, then filler
/// derived from the run seed. Readers regenerate it to check that a read
/// returned a value the writer really wrote.
pub fn write_value(seed: u64, writer: u32, seq: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len.max(12));
    out.extend_from_slice(&writer.to_be_bytes());
    out.extend_from_slice(&seq.to_be_bytes());
    let mut rng = Rng::new(seed, (u64::from(writer) << 40) ^ seq);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len.max(12));
    out
}

/// Decodes the `(writer, seq)` header of a workload value.
pub fn value_header(bytes: &[u8]) -> Option<(u32, u64)> {
    let writer = u32::from_be_bytes(bytes.get(0..4)?.try_into().ok()?);
    let seq = u64::from_be_bytes(bytes.get(4..12)?.try_into().ok()?);
    Some((writer, seq))
}

/// Nanoseconds since the process-wide trace epoch.
pub fn ns(t: Instant) -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// Linear-interpolated percentile of `sorted` (ascending), `q` in [0, 1].
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        len => {
            let pos = q * (len - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(len - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: Vec<f64>) -> f64 {
    quantile(&sorted(values), 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets this process's peak resident set size (VmHWM) to its current
/// resident set size, so the next [`peak_rss_mb`] covers only what runs
/// from now on. Where the kernel does not support it, the peak stays
/// process-wide.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// What a result was measured on. Numbers from different fingerprints
/// are never compared.
pub fn host_fingerprint() -> Vec<(&'static str, String)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |name: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(name))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
    };
    let flags = field("flags").unwrap_or_default();
    let has = |flag: &str| flags.split_whitespace().any(|f| f == flag).to_string();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    vec![
        ("nproc", nproc.to_string()),
        (
            "cpu_model",
            field("model name").unwrap_or_else(|| "unknown".into()),
        ),
        ("sha_ni", has("sha_ni")),
        ("avx2", has("avx2")),
        ("kernel", kernel),
        ("commit", git_commit().unwrap_or_else(|| "unknown".into())),
    ]
}

/// The checked-out commit, read from `.git` without running git; `None`
/// outside a git checkout.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
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

/// A finite JSON number (NaN and infinities, which JSON cannot carry,
/// become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}
