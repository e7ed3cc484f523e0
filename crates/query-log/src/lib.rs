//! AOL-schema web search query logs.
//!
//! The paper evaluates on the 2006 AOL query log (~21M queries, ~650k
//! users). That dataset is not redistributable, so this crate provides two
//! interchangeable sources:
//!
//! * [`parse`] — a parser for the real AOL TSV schema
//!   (`AnonID  Query  QueryTime  ItemRank  ClickURL`), for users who have
//!   the original files;
//! * [`synthetic`] — a calibrated generator producing a log with the
//!   statistical properties every experiment depends on: users with
//!   distinguishable topical profiles, Zipfian query popularity, repeated
//!   queries, and a long tail of personal queries (see DESIGN.md §6).
//!
//! [`split`] reproduces the paper's §5.1 methodology: select the N most
//! active users and split each user's queries ⅔ training / ⅓ testing.
//!
//! # Example
//!
//! ```
//! use xsearch_query_log::synthetic::{SyntheticConfig, generate};
//! use xsearch_query_log::split::{top_active_users, train_test_split};
//!
//! let log = generate(&SyntheticConfig { num_users: 50, ..Default::default() });
//! let top = top_active_users(&log, 10);
//! assert_eq!(top.len(), 10);
//! let split = train_test_split(&log, &top, 2.0 / 3.0);
//! assert!(!split.train.is_empty() && !split.test.is_empty());
//! ```

#![deny(missing_docs)]

pub mod parse;
pub mod record;
pub mod split;
pub mod synthetic;
pub mod topics;
pub mod zipf;

pub use record::{QueryRecord, UserId};
pub use split::{top_active_users, train_test_split, TrainTestSplit};
pub use synthetic::{generate, SyntheticConfig};
