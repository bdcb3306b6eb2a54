//! Typed serving errors.
//!
//! Every admission-control and backpressure decision surfaces as a
//! distinct [`ServeError`] variant so clients (and the load generator)
//! can tell *why* a request failed — a bounded queue rejecting is a
//! normal overload signal, an unknown graph is a caller bug, and the two
//! must never be conflated.

/// Why the serving layer refused or failed a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No graph with this name is registered (or it has been retired).
    UnknownGraph(String),
    /// A [`Workload::Gcn`](crate::Workload::Gcn) request targeted a graph
    /// registered without a model.
    NoModel(String),
    /// The request's feature block does not fit the target graph (or its
    /// model's input width).
    BadShape {
        /// Row count the block must have: the adjacency's column count
        /// (its node count when square).
        expected_rows: usize,
        /// Required column count, when the workload fixes one (a GCN
        /// model's input width); `None` for raw SpMM, where any width is
        /// accepted.
        expected_cols: Option<usize>,
        /// The offending block's `(rows, cols)`.
        got: (usize, usize),
    },
    /// Admission control: the tenant already has `limit` requests in
    /// flight — backpressure, try again later. The queue stays bounded
    /// instead of growing without limit under overload.
    QueueFull {
        /// Tenant whose bounded queue is full.
        tenant: String,
        /// The configured per-tenant in-flight limit.
        limit: usize,
    },
    /// The request's deadline passed before a batch could execute it; the
    /// work was shed instead of computed uselessly late.
    DeadlineExceeded,
    /// The server is shutting down and no longer admits requests.
    ShuttingDown,
    /// The server dropped the reply channel without answering (it was
    /// shut down while the request was in flight).
    Disconnected,
    /// The engine failed executing the batch — indicates a bug, since
    /// shapes are validated at admission.
    Internal(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownGraph(name) => write!(f, "no graph named {name:?} is registered"),
            ServeError::NoModel(name) => {
                write!(
                    f,
                    "graph {name:?} has no model; only raw SpMM requests are served"
                )
            }
            ServeError::BadShape {
                expected_rows,
                expected_cols,
                got,
            } => match expected_cols {
                Some(cols) => write!(
                    f,
                    "feature block is {}x{}, graph/model expects {expected_rows}x{cols}",
                    got.0, got.1
                ),
                None => write!(
                    f,
                    "feature block has {} rows, graph expects {expected_rows}",
                    got.0
                ),
            },
            ServeError::QueueFull { tenant, limit } => write!(
                f,
                "tenant {tenant:?} already has {limit} requests in flight (bounded queue)"
            ),
            ServeError::DeadlineExceeded => write!(f, "deadline passed before the batch executed"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Disconnected => write!(f, "server dropped the request without replying"),
            ServeError::Internal(msg) => write!(f, "internal serving error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_actor() {
        let e = ServeError::QueueFull {
            tenant: "acme".into(),
            limit: 8,
        };
        assert!(e.to_string().contains("acme"));
        assert!(e.to_string().contains('8'));
        assert!(ServeError::UnknownGraph("g".into())
            .to_string()
            .contains("g"));
    }
}
