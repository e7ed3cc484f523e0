//! Crypto hot-path throughput: seal/open GiB/s for the wide multi-block
//! ChaCha20-Poly1305 against the pre-rewrite scalar baseline.
//!
//! Every request in the reproduction — the attested broker↔enclave
//! tunnel, each Tor onion layer, every PEAS hop — runs through this one
//! AEAD, so its byte throughput is the single largest lever on the
//! Fig 5 saturation points. This harness measures both implementations
//! on the same box and commits the ratio, so "the crypto got faster" is
//! a number in `BENCH_crypto.json`, not a claim:
//!
//! * **wide** — the live [`ChaCha20Poly1305`] hot path: precomputed key
//!   schedule, 4-block lane-structured keystream, `u64` XOR, one-pass
//!   seal via the detached in-place APIs (`seal_in_place` on a reused
//!   buffer, exactly how `SecureChannel` drives it);
//! * **scalar** — [`ScalarChaCha20Poly1305`], the verbatim pre-rewrite
//!   implementation (per-block state rebuild, byte XOR, per-16-byte
//!   accumulator round-trip, allocating `seal`/`open`).
//!
//! Payload sizes: 64 B (a sealed query), 1 KiB (a typical sealed result
//! page), 16 KiB (a large result payload / sealed history blob).
//!
//! The `x25519` row is the other half of the crypto bill — what a
//! *session* costs rather than a request: `ladder_ns` (one variable-base
//! scalar multiplication; an attach performs two) against `keygen_ns`
//! (the fixed-base table walk behind `StaticSecret::public_key`; an
//! attach performs one). Both ratios are gated, so a regression of either
//! hot path fails the run. Set
//! `CRYPTO_POINT_MS` to shorten each measured point (CI smoke uses
//! this).
//!
//! Run: `cargo run -p xsearch-bench --release --bin crypto_throughput`

use std::time::{Duration, Instant};
use xsearch_bench::summary::{env_or, fixed, Gate, Json, Obj, Summary};
use xsearch_crypto::aead::{ChaCha20Poly1305, TAG_LEN};
use xsearch_crypto::reference::ScalarChaCha20Poly1305;
use xsearch_crypto::x25519::{basepoint, x25519, StaticSecret};

/// A sealed query, a result page, a large payload.
const SIZES: &[usize] = &[64, 1024, 16384];
/// Payload the acceptance ratio is tracked at.
const TRACKED: usize = 1024;

const KEY: [u8; 32] = [7u8; 32];
const NONCE: [u8; 12] = [3u8; 12];
const AAD: &[u8] = b"results";

/// Runs `op` for at least `point` and returns operations per second.
/// Iterations are batched so the clock is read once per batch, not once
/// per 64-byte seal.
fn ops_per_s(point: Duration, mut op: impl FnMut()) -> f64 {
    for _ in 0..64 {
        op();
    }
    let mut iters: u64 = 0;
    let start = Instant::now();
    let elapsed = loop {
        for _ in 0..64 {
            op();
        }
        iters += 64;
        let elapsed = start.elapsed();
        if elapsed >= point {
            break elapsed;
        }
    };
    iters as f64 / elapsed.as_secs_f64()
}

/// GiB/s of payload processed by `op`.
fn throughput(point: Duration, payload_len: usize, op: impl FnMut()) -> f64 {
    ops_per_s(point, op) * payload_len as f64 / f64::from(1u32 << 30)
}

/// The two X25519 scalar multiplications an attach is made of: the
/// variable-base ladder (both Diffie-Hellmans) and the fixed-base table
/// walk (`public_key`). Each feeds its output back in as the next scalar,
/// so no call can be hoisted.
fn x25519_row(point: Duration) -> (Obj, f64) {
    let base = basepoint();
    let mut scalar = KEY;
    let ladder_ns = 1e9 / ops_per_s(point, || scalar = x25519(&scalar, &base));
    let keygen_ns = 1e9
        / ops_per_s(point, || {
            scalar = StaticSecret::from_bytes(scalar).public_key().0;
        });
    std::hint::black_box(scalar);
    let speedup = ladder_ns / keygen_ns;
    let row = Obj::new()
        .field("ladder_ns", fixed(ladder_ns, 0))
        .field("keygen_ns", fixed(keygen_ns, 0))
        .field("keygen_speedup", fixed(speedup, 2));
    (row, speedup)
}

/// seal/open GiB/s of one implementation at one payload size.
struct OpRates {
    seal: f64,
    open: f64,
}

impl OpRates {
    /// Harmonic combination: bytes per second through a seal *plus* an
    /// open (what one proxied request costs end to end).
    fn seal_open(&self) -> f64 {
        1.0 / (1.0 / self.seal + 1.0 / self.open)
    }

    fn obj(&self) -> Obj {
        Obj::new()
            .field("seal_gib_s", fixed(self.seal, 3))
            .field("open_gib_s", fixed(self.open, 3))
    }
}

fn wide_rates(point: Duration, size: usize) -> OpRates {
    let aead = ChaCha20Poly1305::new(&KEY);
    let payload = vec![0xabu8; size];

    // The live hot path: reused buffer, detached tag (seal_into shape).
    let mut buf: Vec<u8> = Vec::with_capacity(size);
    let seal = throughput(point, size, || {
        buf.clear();
        buf.extend_from_slice(&payload);
        let tag = aead.seal_in_place(&NONCE, AAD, &mut buf);
        std::hint::black_box(&tag);
    });

    let mut ct = payload.clone();
    let tag = aead.seal_in_place(&NONCE, AAD, &mut ct);
    let open = throughput(point, size, || {
        buf.clear();
        buf.extend_from_slice(&ct);
        aead.open_in_place(&NONCE, AAD, &mut buf, &tag)
            .expect("authentic");
        std::hint::black_box(&buf);
    });
    OpRates { seal, open }
}

fn scalar_rates(point: Duration, size: usize) -> OpRates {
    let aead = ScalarChaCha20Poly1305::new(&KEY);
    let payload = vec![0xabu8; size];
    let seal = throughput(point, size, || {
        std::hint::black_box(aead.seal(&NONCE, AAD, &payload));
    });
    let sealed = aead.seal(&NONCE, AAD, &payload);
    assert_eq!(sealed.len(), size + TAG_LEN);
    let open = throughput(point, size, || {
        std::hint::black_box(aead.open(&NONCE, AAD, &sealed).expect("authentic"));
    });
    OpRates { seal, open }
}

fn main() {
    let point_ms = env_or("CRYPTO_POINT_MS", 400, 10);
    let point = Duration::from_millis(point_ms);
    eprintln!("{point:?} per point; wide = live hot path, scalar = pre-rewrite baseline");
    let mut payloads = Vec::new();
    let mut tracked_speedup = 0.0;
    for &size in SIZES {
        eprintln!("measuring {size} B payloads...");
        let wide = wide_rates(point, size);
        let scalar = scalar_rates(point, size);
        let speedup = wide.seal_open() / scalar.seal_open();
        if size == TRACKED {
            tracked_speedup = speedup;
        }
        payloads.push(
            Obj::new()
                .field("bytes", size)
                .field("wide", wide.obj())
                .field("scalar", scalar.obj())
                .field("seal_open_speedup", fixed(speedup, 2)),
        );
    }
    eprintln!("measuring X25519...");
    let (x25519, keygen_speedup) = x25519_row(point);
    let mut summary = Summary::new("crypto");
    summary.row("point_ms", point_ms);
    summary.row("payloads", payloads.into_iter().collect::<Json>());
    let tracked = format!("seal_open_speedup_at_{TRACKED}B");
    summary.row(&tracked, fixed(tracked_speedup, 2));
    summary.row("x25519", x25519);
    summary.gate(Gate::at_least(&tracked, tracked_speedup, 1.5));
    summary.gate(Gate::at_least("keygen_speedup", keygen_speedup, 2.5));
    summary.finish(|| ());
}
