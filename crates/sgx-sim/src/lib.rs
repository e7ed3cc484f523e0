//! A software model of Intel SGX for the X-Search reproduction.
//!
//! No SGX hardware is available in this environment, so the enclave
//! behaviour the paper's systems analysis depends on is modeled explicitly
//! (DESIGN.md documents the substitution):
//!
//! * [`epc`] — the Enclave Page Cache: ~90 MiB of usable protected memory;
//!   allocations beyond the limit trigger costed paging, the effect Fig 6
//!   measures against;
//! * [`measurement`] — MRENCLAVE-style measurement hashes over the
//!   enclave's initial pages;
//! * [`enclave`] — lifecycle (build → initialize → ecall → destroy) with a
//!   typed in-enclave application state;
//! * [`boundary`] — ecall/ocall transition counting and cost accounting
//!   (the paper's §5.3.3 identifies transitions as the main bottleneck);
//! * [`attestation`] — quote generation and a simulated attestation
//!   service (EPID group signatures replaced by MACs under a provisioning
//!   key, preserving the protocol shape);
//! * [`sealed`] — sealing keyed by the enclave measurement.
//!
//! # Example
//!
//! ```
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use xsearch_sgx_sim::enclave::EnclaveBuilder;
//!
//! let enclave = EnclaveBuilder::new("demo")
//!     .with_code(b"demo enclave logic v1")
//!     .build(AtomicU64::new(0)); // app state: a counter
//! let out = enclave.ecall_shared("bump", &[5], |state, input, _ocalls| {
//!     let step = u64::from(input[0]);
//!     (state.fetch_add(step, Ordering::Relaxed) + step).to_le_bytes().to_vec()
//! }).unwrap();
//! assert_eq!(out, 5u64.to_le_bytes());
//! assert_eq!(enclave.boundary().ecalls(), 1);
//! // The boundary counters charge exactly the bytes that crossed.
//! assert_eq!(enclave.boundary().bytes_in(), 1);
//! assert_eq!(enclave.boundary().bytes_out(), 8);
//! ```

#![deny(missing_docs)]

pub mod attestation;
pub mod boundary;
pub mod cost;
pub mod enclave;
pub mod epc;
pub mod error;
pub mod measurement;
pub mod sealed;

pub use enclave::{Enclave, EnclaveBuilder};
pub use error::SgxError;
pub use measurement::Measurement;
