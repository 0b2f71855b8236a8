//! The validation toolkit every wire-side schema shares.
//!
//! Campaign specs (`serscale-core`) and platform specs (`serscale-soc`)
//! follow the same two-stage pattern: a permissive carrier holds whatever
//! the document said (every field optional, every number a raw `f64`),
//! and a `TryFrom` conversion narrows it into a validated value — or
//! fails with a [`SpecError`] naming the offending field by its dotted
//! path (e.g. `sessions[2].pmd_mv`) and how to fix it. The checks below
//! are the vocabulary of those conversions; the `want_*` functions are
//! the JSON side of the same contract, used to lower a parsed document
//! onto a carrier.

use std::collections::BTreeMap;

use crate::json::JsonValue;

/// Largest f64 that still represents every integer exactly (2^53).
pub const EXACT_INT_MAX: f64 = 9_007_199_254_740_992.0;

/// A spec field that failed validation, with an actionable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// The offending field (dotted path, e.g. `arrays[3].interleave`);
    /// syntax errors in the document itself land on the pseudo-field
    /// `body`.
    pub field: String,
    /// What was wrong and what would be accepted.
    pub reason: String,
}

impl SpecError {
    /// Builds an error naming the offending `field` and why it was
    /// rejected.
    pub fn new(field: impl Into<String>, reason: impl Into<String>) -> Self {
        SpecError {
            field: field.into(),
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "spec field `{}`: {}", self.field, self.reason)
    }
}

impl std::error::Error for SpecError {}

/// Checks that `value` is finite and integer-valued in `[min, max]`.
///
/// # Errors
///
/// A [`SpecError`] on `field` ending in `hint` otherwise.
pub fn integer_in(
    field: &str,
    value: f64,
    min: f64,
    max: f64,
    hint: &str,
) -> Result<u64, SpecError> {
    if !value.is_finite() {
        return Err(SpecError::new(
            field,
            format!("{value} is not a finite number; {hint}"),
        ));
    }
    if value.fract() != 0.0 || !(min..=max).contains(&value) {
        return Err(SpecError::new(
            field,
            format!("{value} is not an integer in [{min}, {max}]; {hint}"),
        ));
    }
    Ok(value as u64)
}

/// Checks that `value` is finite and inside `[min, max]`.
///
/// # Errors
///
/// A [`SpecError`] on `field` ending in `hint` otherwise.
pub fn finite_in(
    field: &str,
    value: f64,
    min: f64,
    max: f64,
    hint: &str,
) -> Result<f64, SpecError> {
    if !value.is_finite() || !(min..=max).contains(&value) {
        return Err(SpecError::new(
            field,
            format!("{value} is not a finite number in [{min}, {max}]; {hint}"),
        ));
    }
    Ok(value)
}

/// Checks a name-like identifier: 1–64 chars of `[A-Za-z0-9._-]`.
///
/// # Errors
///
/// A [`SpecError`] on `field` otherwise.
pub fn identifier(field: &str, value: &str) -> Result<String, SpecError> {
    let ok = !value.is_empty()
        && value.len() <= 64
        && value
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
    if ok {
        Ok(value.to_string())
    } else {
        Err(SpecError::new(
            field,
            format!("{value:?} is not a valid identifier; use 1-64 characters of [A-Za-z0-9._-]"),
        ))
    }
}

/// Checks a short human-readable label: 1–128 printable ASCII chars.
///
/// # Errors
///
/// A [`SpecError`] on `field` otherwise.
pub fn label(field: &str, value: &str) -> Result<String, SpecError> {
    let ok =
        !value.is_empty() && value.len() <= 128 && value.chars().all(|c| matches!(c, ' '..='~'));
    if ok {
        Ok(value.to_string())
    } else {
        Err(SpecError::new(
            field,
            format!("{value:?} is not a printable label of 1-128 ASCII characters"),
        ))
    }
}

/// A required raw field, or a structured "field is missing" error.
///
/// # Errors
///
/// A [`SpecError`] on `field` when `value` is `None`.
pub fn required<T: Clone>(field: &str, value: &Option<T>) -> Result<T, SpecError> {
    value
        .clone()
        .ok_or_else(|| SpecError::new(field, "required field is missing"))
}

/// A JSON number field.
///
/// # Errors
///
/// A [`SpecError`] on `field` naming the type found instead.
pub fn want_number(field: &str, value: &JsonValue) -> Result<f64, SpecError> {
    value
        .as_f64()
        .ok_or_else(|| SpecError::new(field, format!("expected a number, got {}", value.kind())))
}

/// A JSON string field.
///
/// # Errors
///
/// A [`SpecError`] on `field` naming the type found instead.
pub fn want_string(field: &str, value: &JsonValue) -> Result<String, SpecError> {
    value
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| SpecError::new(field, format!("expected a string, got {}", value.kind())))
}

/// A JSON object field.
///
/// # Errors
///
/// A [`SpecError`] on `field` naming the type found instead.
pub fn want_object<'a>(
    field: &str,
    value: &'a JsonValue,
) -> Result<&'a BTreeMap<String, JsonValue>, SpecError> {
    match value {
        JsonValue::Object(map) => Ok(map),
        other => Err(SpecError::new(
            field,
            format!("expected an object, got {}", other.kind()),
        )),
    }
}

/// A JSON array field.
///
/// # Errors
///
/// A [`SpecError`] on `field` naming the type found instead.
pub fn want_array<'a>(field: &str, value: &'a JsonValue) -> Result<&'a [JsonValue], SpecError> {
    value
        .as_array()
        .ok_or_else(|| SpecError::new(field, format!("expected an array, got {}", value.kind())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_field_once() {
        let err = SpecError::new("arrays[3].interleave", "must be a power of two");
        assert_eq!(
            err.to_string(),
            "spec field `arrays[3].interleave`: must be a power of two"
        );
    }
}
