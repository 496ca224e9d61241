//! The execution strategy type kept for source compatibility.
//!
//! Every kernel in the workspace runs on the calling thread; parallelism
//! across queries comes from the server's shard workers. [`Parallelism`]
//! survives only as the argument of the two `…_with` constructors that
//! external callers still spell out.

/// How a kernel is executed. [`Parallelism::Sequential`] — on the calling
/// thread — is the only strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Parallelism {
    /// Run on the calling thread.
    #[default]
    Sequential,
}
