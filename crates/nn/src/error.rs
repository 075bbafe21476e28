//! Error type for the neural-network substrate.

use magneto_tensor::TensorError;
use std::fmt;

/// Errors produced by network construction, training and serialisation.
#[derive(Debug, Clone, PartialEq)]
pub enum NnError {
    /// Underlying tensor operation failed (usually a shape mismatch).
    Tensor(TensorError),
    /// A network needs at least an input and an output layer.
    InvalidArchitecture(String),
    /// Batch inputs/labels disagree in length, or a batch is empty.
    InvalidBatch(String),
    /// Training diverged (non-finite loss or weights).
    Diverged {
        /// Epoch at which divergence was detected.
        epoch: usize,
    },
    /// Model decoding failed.
    Decode(String),
    /// Training reached a layer that holds int8 weights; gradients need
    /// f32.
    Int8Weights,
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Tensor(e) => write!(f, "tensor error: {e}"),
            NnError::InvalidArchitecture(msg) => write!(f, "invalid architecture: {msg}"),
            NnError::InvalidBatch(msg) => write!(f, "invalid batch: {msg}"),
            NnError::Diverged { epoch } => write!(f, "training diverged at epoch {epoch}"),
            NnError::Decode(msg) => write!(f, "model decode error: {msg}"),
            NnError::Int8Weights => write!(f, "training needs f32 weights; a layer holds int8"),
        }
    }
}

impl std::error::Error for NnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NnError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for NnError {
    fn from(e: TensorError) -> Self {
        NnError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e: NnError = TensorError::EmptyInput("mean").into();
        assert!(e.to_string().contains("tensor error"));
        assert!(std::error::Error::source(&e).is_some());
        assert!(NnError::Diverged { epoch: 3 }.to_string().contains('3'));
        assert!(std::error::Error::source(&NnError::Decode("x".into())).is_none());
    }
}
