//! The versioned `Report` envelope every JSON artifact ships in, plus
//! the shared `obs_dump.json` writer.
//!
//! Every artifact the harness writes — experiment figures/tables,
//! `loadgen.json`, the chaos pair, the recovery pair — is wrapped as
//!
//! ```json
//! { "schema_version": 1, "artifact": "<name>", "payload": { ... } }
//! ```
//!
//! The payload body is byte-for-byte what the artifact serialized to
//! before the envelope existed, so consumers that only care about the
//! numbers read `payload` and are done. The head lets tooling (the
//! `obs validate` subcommand, CI) check *any* artifact without knowing
//! its payload schema.

use crate::Args;
use bh_obs::{Determinism, MetricEntry, Registry};
use serde::{DeError, Deserialize, Serialize, Value};

/// Version of the envelope itself (not of any payload schema). Bump only
/// when the head fields change shape.
pub const SCHEMA_VERSION: u64 = 1;

/// A built envelope, ready for [`Args::write_json`]-style serialization.
///
/// Holds the fully-assembled [`Value`] tree; [`Serialize`] just clones
/// it, which keeps field order fixed (`schema_version`, `artifact`,
/// `payload`) independent of any struct declaration.
#[derive(Debug, Clone)]
pub struct Envelope {
    value: Value,
}

impl Envelope {
    /// Wraps an already-serialized payload tree under the given artifact
    /// name.
    pub fn wrap(artifact: &str, payload: Value) -> Envelope {
        Envelope {
            value: Value::Object(vec![
                ("schema_version".to_string(), Value::UInt(SCHEMA_VERSION)),
                ("artifact".to_string(), Value::Str(artifact.to_string())),
                ("payload".to_string(), payload),
            ]),
        }
    }

    /// Wraps any serializable payload.
    pub fn of<T: Serialize + ?Sized>(artifact: &str, payload: &T) -> Envelope {
        Envelope::wrap(artifact, payload.serialize())
    }
}

impl Serialize for Envelope {
    fn serialize(&self) -> Value {
        self.value.clone()
    }
}

/// A raw [`Value`] tree that can ride through `serde_json::from_str` —
/// the vendored serde defines no `Deserialize` for `Value` itself.
#[derive(Debug, Clone)]
pub struct RawValue(pub Value);

impl Deserialize for RawValue {
    fn deserialize(v: &Value) -> Result<Self, DeError> {
        Ok(RawValue(v.clone()))
    }
}

/// A validated envelope head with its payload kept as a raw tree.
#[derive(Debug, Clone)]
pub struct ParsedEnvelope {
    /// Envelope schema version (must equal [`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Artifact name recorded in the head.
    pub artifact: String,
    /// The payload tree, untouched.
    pub payload: Value,
}

/// Parses and validates one artifact file's text.
///
/// # Errors
///
/// Fails on malformed JSON, a missing or mistyped head field, an
/// unsupported `schema_version`, or a missing payload.
pub fn parse_envelope(text: &str) -> Result<ParsedEnvelope, String> {
    let RawValue(v) = serde_json::from_str::<RawValue>(text).map_err(|e| e.to_string())?;
    let version = match v.get("schema_version") {
        Some(Value::UInt(n)) => *n,
        Some(other) => return Err(format!("schema_version is not an integer: {other:?}")),
        None => return Err("missing schema_version".to_string()),
    };
    if version != SCHEMA_VERSION {
        return Err(format!(
            "unsupported schema_version {version} (tool knows {SCHEMA_VERSION})"
        ));
    }
    let artifact = match v.get("artifact") {
        Some(Value::Str(s)) => s.clone(),
        Some(other) => return Err(format!("artifact is not a string: {other:?}")),
        None => return Err("missing artifact".to_string()),
    };
    let payload = match v.get("payload") {
        Some(p @ (Value::Object(_) | Value::Array(_))) => p.clone(),
        Some(other) => return Err(format!("payload is not an object or array: {other:?}")),
        None => return Err("missing payload".to_string()),
    };
    Ok(ParsedEnvelope {
        schema_version: version,
        artifact,
        payload,
    })
}

/// One named counter in an artifact — the serializable view of a
/// registry [`MetricEntry`].
#[derive(Debug, Clone, Serialize)]
pub struct MetricValue {
    /// Metric name (histograms appear expanded, e.g. `x.le.100`).
    pub name: String,
    /// Counter/gauge value or histogram component.
    pub value: u64,
}

impl From<&MetricEntry> for MetricValue {
    fn from(e: &MetricEntry) -> MetricValue {
        MetricValue {
            name: e.name.clone(),
            value: e.value,
        }
    }
}

/// Converts a snapshot into the serializable artifact form.
pub fn metric_values(entries: &[MetricEntry]) -> Vec<MetricValue> {
    entries.iter().map(MetricValue::from).collect()
}

/// Writes `<out>/obs_dump.json`: the **deterministic** subset of
/// `registry`, enveloped. Only `Determinism::Deterministic` metrics are
/// included, so the file is byte-identical across `--jobs` values and
/// across repeated runs of the same seed — CI and the determinism tests
/// diff it.
pub fn write_obs_dump(args: &Args, registry: &Registry) {
    let entries = registry.snapshot_filtered(Determinism::Deterministic);
    args.write_json("obs_dump", &metric_values(&entries));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_round_trips_through_parse() {
        let env = Envelope::of("fig9", &vec![1u64, 2, 3]);
        let text = serde_json::to_string_pretty(&env).expect("serialize");
        let parsed = parse_envelope(&text).expect("parse");
        assert_eq!(parsed.schema_version, SCHEMA_VERSION);
        assert_eq!(parsed.artifact, "fig9");
        assert_eq!(
            parsed.payload,
            Value::Array(vec![Value::UInt(1), Value::UInt(2), Value::UInt(3)])
        );
    }

    #[test]
    fn envelope_head_field_order_is_fixed() {
        let env = Envelope::of("x", &0u64);
        match env.serialize() {
            Value::Object(fields) => {
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["schema_version", "artifact", "payload"]);
            }
            other => panic!("envelope is not an object: {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_bad_heads() {
        assert!(parse_envelope("{}").is_err());
        assert!(parse_envelope("{\"schema_version\": 1}").is_err());
        assert!(
            parse_envelope("{\"schema_version\": 99, \"artifact\": \"a\", \"payload\": {}}")
                .is_err()
        );
        assert!(
            parse_envelope("{\"schema_version\": 1, \"artifact\": \"a\", \"payload\": 3}").is_err()
        );
        assert!(parse_envelope("not json").is_err());
    }

    #[test]
    fn scalar_payloads_are_rejected_but_arrays_pass() {
        let ok = "{\"schema_version\": 1, \"artifact\": \"a\", \"payload\": []}";
        assert!(parse_envelope(ok).is_ok());
    }

    #[test]
    fn metric_values_mirror_entries() {
        let entries = vec![
            MetricEntry {
                name: "a".into(),
                value: 1,
            },
            MetricEntry {
                name: "b".into(),
                value: 2,
            },
        ];
        let vals = metric_values(&entries);
        assert_eq!(vals.len(), 2);
        assert_eq!(vals[1].name, "b");
        assert_eq!(vals[1].value, 2);
    }
}
