//! **Figure 6**: memory usage of the in-enclave query history vs number
//! of stored queries.
//!
//! Paper claim to reproduce: the usable EPC (~90 MiB) comfortably fits
//! more than 1M stored queries. The paper profiled the heap with
//! Valgrind/Massif over the 6M unique AOL queries; here the history's
//! accounting is read directly while inserting 1M unique synthetic
//! queries (x-axis in units of 10⁴ queries, like the paper). That
//! accounting is what the table holds: its 4 KiB text pages and one
//! 8-byte slot per query.
//!
//! Prints the series, then reports through `Summary` into
//! `BENCH_fig6.json`. The queries are seeded, so the figure is gated
//! twice: *exactly* (the MiB at 1M queries pinned to four decimals) and
//! *in the paper's shape* (within the usable EPC, no page paged out).
//!
//! Run: `cargo run -p xsearch-bench --release --bin fig6_memory`

use xsearch_bench::series::Table;
use xsearch_bench::summary::{fixed, Gate, Summary};
use xsearch_core::history::QueryHistory;
use xsearch_query_log::synthetic::unique_queries;
use xsearch_sgx_sim::epc::{EpcGauge, USABLE_EPC_BYTES};

const TOTAL_QUERIES: usize = 1_000_000;
const POINT_EVERY: usize = 10_000;

/// MiB the 1M-query window accounts, as this tree produces it.
const PIN_MIB: f64 = 28.2583;

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
        "{TOTAL_QUERIES} unique synthetic queries; pages and slots as held"
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

    let memory = history.memory_bytes();
    let per_query = memory as f64 / history.len() as f64;
    let mut summary = Summary::new("fig6");
    summary.row("queries", history.len());
    summary.row("memory_mib", fixed(to_mib(memory), 4));
    summary.row("bytes_per_query", fixed(per_query, 4));
    summary.row("usable_epc_mib", fixed(to_mib(USABLE_EPC_BYTES), 4));
    summary.row(
        "epc_fits_millions",
        fixed(USABLE_EPC_BYTES as f64 / per_query / 1e6, 4),
    );
    summary.gate(Gate::pinned("fig6_memory_mib", to_mib(memory), PIN_MIB));
    summary.gate(Gate::at_least(
        "fig6_within_limit",
        f64::from(u8::from(gauge.within_limit())),
        1.0,
    ));
    summary.gate(Gate::at_most(
        "fig6_paged_pages",
        gauge.paged_pages() as f64,
        0.0,
    ));
    summary.finish(|| {});
}
