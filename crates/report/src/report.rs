//! Report records.

use mirage_telemetry::json::Value;

use crate::image::ReportImage;

/// The succinct outcome of one upgrade test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportOutcome {
    /// The upgrade passed testing and was integrated.
    Success,
    /// Testing failed.
    Failure {
        /// The failure signature: application plus failure kind — what
        /// the vendor groups duplicate reports by.
        signature: String,
        /// Human-readable detail (the validator's failure description).
        detail: String,
    },
}

impl ReportOutcome {
    /// Returns `true` for a success.
    pub fn is_success(&self) -> bool {
        matches!(self, ReportOutcome::Success)
    }

    /// Serialises the outcome as a tagged JSON object.
    pub(crate) fn to_json(&self) -> Value {
        match self {
            ReportOutcome::Success => Value::obj([("kind", Value::str("success"))]),
            ReportOutcome::Failure { signature, detail } => Value::obj([
                ("kind", Value::str("failure")),
                ("signature", Value::str(signature.clone())),
                ("detail", Value::str(detail.clone())),
            ]),
        }
    }
}

/// One report deposited in the URR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Reporting machine.
    pub machine: String,
    /// The machine's cluster of deployment.
    pub cluster: usize,
    /// Upgraded package name.
    pub package: String,
    /// Version string of the tested release.
    pub version: String,
    /// Test outcome.
    pub outcome: ReportOutcome,
    /// Logical timestamp (assigned by the URR on deposit).
    pub seq: u64,
    /// Reproduction image (present on failures).
    pub image: Option<ReportImage>,
}

impl Report {
    /// Creates a success report (no image needed).
    pub fn success(
        machine: impl Into<String>,
        cluster: usize,
        package: impl Into<String>,
        version: impl Into<String>,
    ) -> Self {
        Report {
            machine: machine.into(),
            cluster,
            package: package.into(),
            version: version.into(),
            outcome: ReportOutcome::Success,
            seq: 0,
            image: None,
        }
    }

    /// Creates a failure report carrying a reproduction image.
    pub fn failure(
        machine: impl Into<String>,
        cluster: usize,
        package: impl Into<String>,
        version: impl Into<String>,
        signature: impl Into<String>,
        detail: impl Into<String>,
        image: ReportImage,
    ) -> Self {
        Report {
            machine: machine.into(),
            cluster,
            package: package.into(),
            version: version.into(),
            outcome: ReportOutcome::Failure {
                signature: signature.into(),
                detail: detail.into(),
            },
            seq: 0,
            image: Some(image),
        }
    }

    /// Serialises the report as a JSON object.
    pub(crate) fn to_json(&self) -> Value {
        Value::obj([
            ("machine", Value::str(self.machine.clone())),
            ("cluster", Value::from(self.cluster)),
            ("package", Value::str(self.package.clone())),
            ("version", Value::str(self.version.clone())),
            ("outcome", self.outcome.to_json()),
            ("seq", Value::from(self.seq)),
            (
                "image",
                match &self.image {
                    Some(img) => img.to_json(),
                    None => Value::Null,
                },
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let ok = Report::success("m1", 3, "mysql", "5.0.27");
        assert!(ok.outcome.is_success());
        assert!(ok.image.is_none());

        let bad = Report::failure(
            "m2",
            4,
            "mysql",
            "5.0.27",
            "php/crash",
            "crash (exit 139)",
            ReportImage::default(),
        );
        assert!(!bad.outcome.is_success());
        assert!(
            matches!(&bad.outcome, ReportOutcome::Failure { signature, .. } if signature == "php/crash")
        );
        assert!(bad.image.is_some());
    }
}
