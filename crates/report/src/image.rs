//! Report images: what the vendor needs to reproduce a failure.

use mirage_telemetry::json::Value;

/// A reproduction image attached to a failure report.
///
/// The paper's implementation ships "the entire upgraded virtual machine
/// state, including recorded inputs and outputs used during replay". In
/// the simulated environment that corresponds to a digest of the sandbox
/// filesystem, the environment diff context, and the replayed I/O.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReportImage {
    /// Digest of the sandbox filesystem after the upgrade (stands in for
    /// the full VM state).
    pub(crate) sandbox_digest: String,
    /// The machine's differing items against the vendor reference — the
    /// *context* that makes the failure reproducible.
    pub env_context: Vec<String>,
    /// Inputs replayed during the failed validation.
    pub(crate) replayed_inputs: Vec<String>,
    /// Outputs observed (including suppressed network sends).
    pub observed_outputs: Vec<String>,
}

impl ReportImage {
    /// Creates an image from its parts.
    pub fn new(
        sandbox_digest: impl Into<String>,
        env_context: Vec<String>,
        replayed_inputs: Vec<String>,
        observed_outputs: Vec<String>,
    ) -> Self {
        ReportImage {
            sandbox_digest: sandbox_digest.into(),
            env_context,
            replayed_inputs,
            observed_outputs,
        }
    }

    /// Approximate image size in bytes (storage accounting).
    pub fn byte_size(&self) -> usize {
        self.sandbox_digest.len()
            + self.env_context.iter().map(String::len).sum::<usize>()
            + self.replayed_inputs.iter().map(String::len).sum::<usize>()
            + self.observed_outputs.iter().map(String::len).sum::<usize>()
    }

    /// Serialises the image as a JSON object.
    pub(crate) fn to_json(&self) -> Value {
        Value::obj([
            ("sandbox_digest", Value::str(self.sandbox_digest.clone())),
            ("env_context", strings(&self.env_context)),
            ("replayed_inputs", strings(&self.replayed_inputs)),
            ("observed_outputs", strings(&self.observed_outputs)),
        ])
    }
}

fn strings(items: &[String]) -> Value {
    Value::arr(items.iter().map(Value::str))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_size_sums_parts() {
        let img = ReportImage::new(
            "abcd",
            vec!["item1".into()],
            vec!["in".into()],
            vec!["out".into()],
        );
        assert_eq!(img.byte_size(), 4 + 5 + 2 + 3);
    }
}
