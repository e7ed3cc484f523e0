//! **Figure 6**: memory usage of the in-enclave query history vs number
//! of stored queries.
//!
//! Paper claim to reproduce: the usable EPC (~90 MiB) comfortably fits
//! more than 1M stored queries. The paper profiled the heap with
//! Valgrind/Massif over the 6M unique AOL queries; here the history's
//! byte-accurate accounting is read directly while inserting 1M unique
//! synthetic queries (x-axis in units of 10⁴ queries, like the paper).
//!
//! Run: `cargo run -p xsearch-bench --release --bin fig6_memory`

use xsearch_bench::series::Table;
use xsearch_core::history::QueryHistory;
use xsearch_query_log::synthetic::unique_queries;
use xsearch_sgx_sim::epc::{EpcGauge, USABLE_EPC_BYTES};

const TOTAL_QUERIES: usize = 1_000_000;
const POINT_EVERY: usize = 10_000;

/// Bytes as fractional MiB, the unit of Fig 6's y-axis.
fn to_mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn main() {
    let queries = unique_queries(TOTAL_QUERIES, 2017);
    let gauge = EpcGauge::new();
    let history = QueryHistory::new(TOTAL_QUERIES, gauge.clone());

    let mut table = Table::new(
        "fig6: history memory vs queries stored",
        &["queries_x1e4", "memory_mib", "usable_epc_mib"],
    );
    table.note(&format!(
        "{TOTAL_QUERIES} unique synthetic queries, byte-accurate accounting"
    ));
    table.note("paper: >1M queries fit within the ~90 MiB usable EPC");

    table.row(&[0.0, 0.0, to_mib(USABLE_EPC_BYTES)]);
    for (i, q) in queries.iter().enumerate() {
        history.push(q);
        if (i + 1) % POINT_EVERY == 0 {
            table.row(&[
                (i + 1) as f64 / 10_000.0,
                to_mib(gauge.used()),
                to_mib(USABLE_EPC_BYTES),
            ]);
        }
    }
    table.print();

    println!();
    println!("# summary");
    println!(
        "stored={} memory={:.1} MiB usable_epc={:.0} MiB within_limit={} paged_pages={}",
        history.len(),
        to_mib(gauge.used()),
        to_mib(USABLE_EPC_BYTES),
        gauge.within_limit(),
        gauge.paged_pages(),
    );
    let per_query = gauge.used() as f64 / history.len() as f64;
    println!("bytes per stored query (incl. container overhead): {per_query:.1}");
    println!(
        "headroom: EPC fits ≈ {:.2}M queries of this size",
        USABLE_EPC_BYTES as f64 / per_query / 1e6
    );
}
