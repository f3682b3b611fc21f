//! # inconsist-formats
//!
//! The text formats of the `inconsist` workspace, shared by every front
//! end (the CLI binary and the `inconsist-server` serving layer):
//!
//! * [`csv`] — CSV data files with schema inference (header + rows, the
//!   three column kinds `Int`/`Float`/`Str`, empty cells as NULL);
//! * [`dcfile`] — `.dc` denial-constraint files (one forbidden condition
//!   per line, optional `name:` prefix);
//! * [`opsfile`] — `.ops` repair scripts (one repairing operation of §2
//!   per line: `delete`/`update`/`insert`);
//! * [`durable`] — the server's durability artifacts: point-in-time
//!   session snapshots and checksummed write-ahead op-log records with
//!   torn-tail detection.
//!
//! These used to live inside `inconsist-cli`; they moved here so the
//! server crate can parse session payloads (CSV + DC uploads, `op`
//! request bodies) without depending on the CLI, keeping the dependency
//! chain `cli → server → formats → core` acyclic.

#![warn(missing_docs)]

pub mod csv;
pub mod dcfile;
pub mod durable;
pub mod opsfile;

pub use csv::{load_csv, parse_csv, write_csv, LoadedCsv};
pub use dcfile::{parse_dc_file, write_dc_file};
pub use durable::{encode_log_record, parse_log, parse_snapshot, write_snapshot, LogRecord};
pub use opsfile::{display_op, op_to_line, parse_ops_file};
