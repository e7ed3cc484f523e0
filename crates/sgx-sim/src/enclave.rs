//! Enclave lifecycle: build → measure → initialize → ecall → destroy.
//!
//! An [`Enclave<T>`] hosts a typed application state `T` that is only
//! reachable through [`Enclave::ecall_shared`], mirroring how enclave
//! memory is unreachable from untrusted code. Every entry records a
//! boundary crossing with its exact byte counts and modeled cost.

use crate::attestation::Quote;
use crate::boundary::{BoundaryStats, OcallPort};
use crate::epc::EpcGauge;
use crate::error::SgxError;
use crate::measurement::{Measurement, MeasurementBuilder};
use std::sync::Arc;
use xsearch_crypto::hmac::HmacSha256;

/// Builder for an enclave: load regions, configure, then `build`.
#[derive(Debug)]
pub struct EnclaveBuilder {
    name: String,
    measurement: MeasurementBuilder,
    provisioning_key: Option<[u8; 32]>,
}

impl EnclaveBuilder {
    /// Starts building an enclave named `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        EnclaveBuilder {
            name: name.into(),
            measurement: MeasurementBuilder::new(),
            provisioning_key: None,
        }
    }

    /// Loads a code/data region, extending the measurement (like adding
    /// pages before EINIT).
    #[must_use]
    pub fn with_code(mut self, region: &[u8]) -> Self {
        self.measurement.add_region(region);
        self
    }

    /// Provisions the platform's quoting key (obtained from the
    /// attestation service); required for [`Enclave::quote`].
    #[must_use]
    pub fn with_provisioning_key(mut self, key: [u8; 32]) -> Self {
        self.provisioning_key = Some(key);
        self
    }

    /// Initializes the enclave with its application state (EINIT: the
    /// measurement is final from here on).
    #[must_use]
    pub fn build<T>(self, state: T) -> Enclave<T> {
        self.build_with(|_| state)
    }

    /// Like [`EnclaveBuilder::build`], but the state constructor receives
    /// the enclave's EPC gauge — for application states whose data
    /// structures charge their memory to the enclave (the X-Search
    /// history table does).
    #[must_use]
    pub fn build_with<T>(self, make_state: impl FnOnce(&Arc<EpcGauge>) -> T) -> Enclave<T> {
        let epc = EpcGauge::new();
        let state = make_state(&epc);
        Enclave {
            name: self.name,
            measurement: self.measurement.finalize(),
            state,
            boundary: BoundaryStats::new(),
            epc,
            provisioning_key: self.provisioning_key,
        }
    }
}

/// An initialized enclave hosting application state `T`.
#[derive(Debug)]
pub struct Enclave<T> {
    name: String,
    measurement: Measurement,
    state: T,
    boundary: Arc<BoundaryStats>,
    epc: Arc<EpcGauge>,
    provisioning_key: Option<[u8; 32]>,
}

impl<T> Enclave<T> {
    /// The enclave's label.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The enclave measurement (identifies the loaded code).
    #[must_use]
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// Boundary-crossing counters.
    #[must_use]
    pub fn boundary(&self) -> Arc<BoundaryStats> {
        self.boundary.clone()
    }

    /// The enclave's EPC gauge (shared with in-enclave data structures).
    #[must_use]
    pub fn epc(&self) -> Arc<EpcGauge> {
        self.epc.clone()
    }

    /// Concurrent enclave entry (real SGX provides multiple TCS slots so
    /// several threads can be inside an enclave at once). The application
    /// state is accessed through a shared reference and must manage its
    /// own interior mutability — exactly like the paper's proxy, whose
    /// query table "is kept in memory and shared among all threads".
    ///
    /// # Errors
    ///
    /// This model's ecalls always succeed; the `Result` mirrors the SGX
    /// SDK's fallible `sgx_ecall` signature so call sites stay realistic.
    pub fn ecall_shared(
        &self,
        _name: &str,
        input: &[u8],
        f: impl FnOnce(&T, &[u8], &OcallPort) -> Vec<u8>,
    ) -> Result<Vec<u8>, SgxError> {
        let port = OcallPort::new(self.boundary.clone());
        let out = f(&self.state, input, &port);
        self.boundary.record_ecall(input.len(), out.len());
        Ok(out)
    }

    /// Produces an attestation quote binding `report_data` (typically a
    /// hash of a channel public key) to this enclave's measurement.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::QuoteRejected`] when the platform was never
    /// provisioned with a quoting key.
    pub fn quote(&self, report_data: &[u8]) -> Result<Quote, SgxError> {
        let key = self.provisioning_key.ok_or(SgxError::QuoteRejected)?;
        let mut mac = HmacSha256::new(&key);
        mac.update(&self.measurement.0);
        mac.update(&(report_data.len() as u64).to_le_bytes());
        mac.update(report_data);
        Ok(Quote {
            measurement: self.measurement,
            report_data: report_data.to_vec(),
            mac: mac.finalize(),
        })
    }

    /// Tears the enclave down, dropping its protected state.
    pub fn destroy(self) {
        drop(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn ecall_mutates_protected_state() {
        let e = EnclaveBuilder::new("t")
            .with_code(b"code")
            .build(Mutex::new(Vec::<u32>::new()));
        let push = |state: &Mutex<Vec<u32>>, input: &[u8], _: &OcallPort| {
            state.lock().unwrap().push(u32::from(input[0]));
            Vec::new()
        };
        e.ecall_shared("push", &[1], push).unwrap();
        e.ecall_shared("push", &[2], push).unwrap();
        let len = e
            .ecall_shared("len", &[], |state, _, _| {
                vec![state.lock().unwrap().len() as u8]
            })
            .unwrap();
        assert_eq!(len, [2]);
        assert_eq!(e.boundary().ecalls(), 3);
    }

    #[test]
    fn ecall_counted_charges_reported_output_size() {
        let e = EnclaveBuilder::new("t")
            .with_code(b"code")
            .build(vec!["alpha".to_owned(), "beta".to_owned()]);
        // Heap-owning state crosses as the bytes it serializes to, never
        // as the size of its in-enclave representation.
        let out = e
            .ecall_shared("snapshot", b"rq", |state, _, _| state.concat().into_bytes())
            .unwrap();
        assert_eq!(out, b"alphabeta");
        assert_eq!(e.boundary().bytes_in(), 2);
        assert_eq!(e.boundary().bytes_out(), 9, "alpha + beta payload bytes");
    }

    #[test]
    fn ecall_bytes_counts_exact_sizes() {
        let e = EnclaveBuilder::new("t").with_code(b"code").build(());
        let out = e
            .ecall_shared("echo", b"12345", |_, input, _| input.to_vec())
            .unwrap();
        assert_eq!(out, b"12345");
        assert_eq!(e.boundary().bytes_in(), 5);
        assert_eq!(e.boundary().bytes_out(), 5);
    }

    #[test]
    fn ocalls_from_inside_ecall_are_counted() {
        let e = EnclaveBuilder::new("t").with_code(b"code").build(());
        e.ecall_shared("request", b"q", |_, _, port| {
            let dns = port.ocall(b"connect engine", |_| b"sock:1".to_vec());
            assert_eq!(dns, b"sock:1");
            port.ocall(b"send query", |_| Vec::new());
            port.ocall(b"recv results", |_| b"results".to_vec())
        })
        .unwrap();
        assert_eq!(e.boundary().ecalls(), 1);
        assert_eq!(e.boundary().ocalls(), 3);
    }

    #[test]
    fn same_code_same_measurement_different_code_different() {
        let a = EnclaveBuilder::new("a").with_code(b"v1").build(());
        let b = EnclaveBuilder::new("b").with_code(b"v1").build(());
        let c = EnclaveBuilder::new("c").with_code(b"v2").build(());
        assert_eq!(a.measurement(), b.measurement());
        assert_ne!(a.measurement(), c.measurement());
    }

    #[test]
    fn quote_requires_provisioning() {
        let e = EnclaveBuilder::new("t").with_code(b"code").build(());
        assert_eq!(e.quote(b"rd").unwrap_err(), SgxError::QuoteRejected);
    }

    #[test]
    fn epc_gauge_is_shared() {
        let e = EnclaveBuilder::new("t").with_code(b"c").build(());
        let gauge = e.epc();
        gauge.charge(100);
        assert_eq!(e.epc().used(), 100);
    }

    #[test]
    fn modeled_overhead_grows_with_traffic() {
        let e = EnclaveBuilder::new("t").with_code(b"c").build(());
        let before = e.boundary().modeled_overhead();
        e.ecall_shared("x", &[0u8; 1024], |_, _, _| vec![0u8; 2048])
            .unwrap();
        assert!(e.boundary().modeled_overhead() > before);
    }
}
