//! # verbcheck — static analysis for verb programs
//!
//! The paper's thesis is that one-sided verbs are *memory* accesses and
//! deserve the same discipline as local memory: ordering, alignment,
//! batching, and placement rules (§III-A–E). This crate turns those
//! guidelines — plus the ibverbs rules that real RNICs enforce in
//! hardware — into a compiler-style checker that runs *before*
//! simulation and emits diagnostics with stable codes, severities, and
//! spans.
//!
//! A [`VerbProgram`] is the analyzable form of what an application does:
//! MR and QP declarations plus an ordered sequence of posts and poll
//! points. [`analyze`](fn@analyze) walks it once and reports:
//!
//! | code | severity | rule |
//! |---|---|---|
//! | E001 | error | SGE out of registered-MR bounds / bad rkey |
//! | E002 | error | atomic target not 8-byte aligned or SGL ≠ 8 bytes |
//! | E003 | error | unsignaled run ≥ SQ depth (send-queue wedge) |
//! | E004 | error | signaled completions can exceed CQ depth between polls |
//! | E005 | error | same-poll-window cross-QP writes to overlapping bytes |
//! | W102 | warning | potential cross-QP write-write overlap across poll windows |
//! | W103 | warning | cross-QP read racing an unretired write to the same bytes |
//! | W201 | warning | SGL longer than device `max_sge` (§III-A) |
//! | W202 | warning | random stride over a region that thrashes the MTT cache (§III-B) |
//! | W203 | warning | ≥ θ small writes to one aligned block — consolidate (§III-C) |
//! | W204 | warning | buffer socket differs from the QP port's socket (§III-D) |
//!
//! (W101, the retired QP-granular race advisory, was superseded by the
//! byte-precise W102/W103/E005 family; the number is never reused.)
//!
//! Errors describe programs that fault or corrupt on real hardware even
//! if they "work" in a simulator; warnings describe programs that leave
//! paper-quantified performance on the table. Every W2xx warning also
//! carries a machine-applicable [`Fix`]; [`fix_to_fixpoint`] applies
//! them and re-lints until the program is warning-free.
//!
//! ## Example
//!
//! ```
//! use rnicsim::{DeviceCaps, MrId, QpNum, Sge, WorkRequest, RKey};
//! use verbcheck::{analyze, has_errors, VerbProgram};
//!
//! let mut p = VerbProgram::new();
//! p.mr(0, MrId(0), 1, 4096); // local staging buffer
//! p.mr(1, MrId(7), 1, 4096); // remote table
//! p.qp(QpNum(0), 0, 1, 1, 1);
//! // In bounds, aligned, signaled, polled: no diagnostics.
//! p.post(QpNum(0), WorkRequest::write(1, Sge::new(MrId(0), 0, 64), RKey(7), 0));
//! p.poll(QpNum(0), 1);
//! let diags = analyze(&p, &DeviceCaps::default());
//! assert!(diags.is_empty());
//! assert!(!has_errors(&diags));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod diag;
pub mod fix;
pub mod footprint;
pub mod program;

pub use analyze::{analyze, analyze_with, has_errors, LintOptions};
pub use diag::{Code, Diagnostic, Severity, Span};
pub use fix::{apply_fix, fix_to_fixpoint, Fix, FixOutcome};
pub use footprint::{FootprintIndex, IntervalSet, OpSpan};
pub use program::{Event, MrDecl, QpDecl, VerbProgram};
