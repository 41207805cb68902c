//! # M&C baseline: a classic lock-free skiplist on the simulated GPU memory
//!
//! Misra & Chaudhuri ("Performance Evaluation of Concurrent Lock-Free Data
//! Structures on GPUs", ICPADS 2012) ported the textbook lock-free skiplist
//! (Herlihy & Shavit ch. 14 / Fraser) to CUDA essentially unchanged: one
//! thread per operation, one key per node, per-node towers of marked next
//! pointers, tower heights pre-drawn on the host with `p_key`, and no memory
//! reclamation. The GFSL paper uses this implementation as its baseline
//! (referred to as "M&C" throughout Chapter 5).
//!
//! This crate reproduces that baseline over the same [`gfsl_gpu_mem`]
//! substrate GFSL uses, so the experiment harness can measure both under an
//! identical memory model. Nodes are variable-size word records in the flat
//! pool; every node visit is a scattered single-lane access — exactly the
//! uncoalesced pattern whose cost the paper's evaluation demonstrates.
//!
//! Layout of a node of height `h` (word addresses relative to the node
//! base):
//!
//! ```text
//!   word 0      : key  (low 32) | height (high 32)
//!   word 1      : value (low 32)
//!   word 2 + l  : level-l next pointer: node index (low 32) | mark (bit 63)
//! ```

#![warn(missing_docs)]

pub mod list;
mod node;

pub use list::{McHandle, McParams, McSkipList, McStats};
