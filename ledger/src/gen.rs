//! Seeded input generators. The program under test sees only what these
//! produce; the same seed gives the same inputs, a different seed gives
//! different inputs of the same cost profile (orders and identities
//! change, the multiset of work does not).

use blob_core::rng::XorShift64;
use blob_core::wire::{precision_key, Json};
use blob_core::Problem;
use blob_sim::Precision;

/// The service's system ids (`blob_serve::api::default_systems`).
pub const SYSTEMS: [&str; 6] = [
    "dawn",
    "lumi",
    "isambard-ai",
    "isambard-ai-armpl",
    "mi300a",
    "a100",
];

/// Distinct `/v1/threshold` keys in the `serve_threshold` workload: four
/// times the service's 256-entry cache.
pub const THRESHOLD_KEYS: usize = 1024;

/// Distinct `/v1/advise` bodies the `serve_advise` client rotates over.
pub const ADVISE_BODIES: usize = 1024;

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = XorShift64::new(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.range_usize(0, i + 1));
    }
    p
}

/// Frames `body` as a keep-alive `POST` to `path`.
pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: ledger\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The `i`-th single-call `/v1/advise` body: system × op × precision ×
/// shape all rotate with `i`, so [`ADVISE_BODIES`] consecutive values are
/// distinct and cover every system equally.
pub fn advise_body(i: usize) -> String {
    let system = SYSTEMS[i % SYSTEMS.len()];
    let precision = if (i / 6) % 2 == 0 { "f32" } else { "f64" };
    // dimensions 64·2^(0..5) plus an offset that keeps bodies distinct
    let m = (64usize << ((i / 12) % 6)) + i % 61;
    let iterations = [1u32, 8, 32, 64, 128][(i / 72) % 5];
    if (i / 360) % 3 == 2 {
        format!(
            r#"{{"system":"{system}","op":"gemv","m":{m},"n":{m},"precision":"{precision}","iterations":{iterations}}}"#
        )
    } else {
        format!(
            r#"{{"system":"{system}","op":"gemm","m":{m},"n":{m},"k":{m},"precision":"{precision}","iterations":{iterations}}}"#
        )
    }
}

/// The `serve_advise` request stream: [`ADVISE_BODIES`] framed requests in
/// a seeded order (the client cycles through them).
pub fn advise_requests(seed: u64) -> Vec<Vec<u8>> {
    permutation(seed, ADVISE_BODIES)
        .into_iter()
        .map(|i| post("/v1/advise", &advise_body(i)))
        .collect()
}

/// The `i`-th `/v1/threshold` body, `i < 1680`: a mixed-radix walk over
/// system × problem × precision × iterations × `max_dim ∈ {1024, 2048}`,
/// so any prefix holds pairwise-distinct cache keys and `max_dim ≥ 1024`.
pub fn threshold_body(i: usize) -> String {
    let problems = Problem::all();
    let system = SYSTEMS[i % SYSTEMS.len()];
    let problem = problems[(i / 6) % problems.len()];
    let precision = Precision::ALL[(i / 84) % 2];
    let iterations = [1u32, 8, 32, 64, 128][(i / 168) % 5];
    let max_dim = 1024 * (1 + (i / 840) % 2);
    Json::obj()
        .field("system", system)
        .field("problem", problem.id())
        .field("precision", precision_key(precision))
        .field("iterations", iterations)
        .field("max_dim", max_dim)
        .build()
        .encode()
}

/// The `serve_threshold` key stream: which of the [`THRESHOLD_KEYS`] keys
/// each request asks for. Popularity is log-uniform over rank (rank `r`
/// drawn with weight ∝ `ln((r+2)/(r+1))`, about `1/(r+1)`); the seed picks
/// which key holds which rank and the draw order.
pub struct KeyStream {
    rng: XorShift64,
    by_rank: Vec<usize>,
}

impl KeyStream {
    /// A stream for `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: XorShift64::new(seed ^ 0x51ED_270B_8A5C_31F7),
            by_rank: permutation(seed, THRESHOLD_KEYS),
        }
    }

    /// The key index of the next request.
    pub fn next_key(&mut self) -> usize {
        let u = self.rng.next_f64();
        let rank = ((THRESHOLD_KEYS as f64).powf(u) as usize).clamp(1, THRESHOLD_KEYS) - 1;
        self.by_rank[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn permutations_are_deterministic_per_seed_and_differ_across_seeds() {
        let a = permutation(1, 100);
        assert_eq!(a, permutation(1, 100));
        assert_ne!(a, permutation(2, 100));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_eq!(permutation(5, 0), Vec::<usize>::new());
    }

    #[test]
    fn advise_bodies_are_distinct_valid_calls() {
        let bodies: BTreeSet<String> = (0..ADVISE_BODIES).map(advise_body).collect();
        assert_eq!(bodies.len(), ADVISE_BODIES);
        for b in &bodies {
            let doc = Json::parse(b).expect("body is JSON");
            assert!(blob_core::schema::parse_call(&doc, 1 << 16).is_ok(), "{b}");
        }
        assert_eq!(advise_requests(3), advise_requests(3));
        assert_ne!(advise_requests(3), advise_requests(4));
    }

    #[test]
    fn threshold_keys_are_distinct_and_large_enough() {
        let bodies: BTreeSet<String> = (0..THRESHOLD_KEYS).map(threshold_body).collect();
        assert_eq!(bodies.len(), THRESHOLD_KEYS);
        for b in &bodies {
            let doc = Json::parse(b).expect("body is JSON");
            assert!(doc.get("max_dim").and_then(Json::as_u64) >= Some(1024));
        }
    }

    #[test]
    fn key_stream_is_seeded_and_skewed() {
        let draw = |seed: u64| -> Vec<usize> {
            let mut s = KeyStream::new(seed);
            (0..20_000).map(|_| s.next_key()).collect()
        };
        let a = draw(9);
        assert_eq!(a, draw(9));
        assert_ne!(a, draw(10));
        assert!(a.iter().all(|&k| k < THRESHOLD_KEYS));
        // log-uniform: the 31 most popular keys (1024^u < 32) take half
        // the draws (ln 32 / ln 1024 = 0.5)
        let s = KeyStream::new(9);
        let hot: BTreeSet<usize> = s.by_rank[..31].iter().copied().collect();
        let share = a.iter().filter(|k| hot.contains(k)).count() as f64 / a.len() as f64;
        assert!((share - 0.5).abs() < 0.03, "hot share {share}");
    }
}
