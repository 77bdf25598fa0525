//! Predictor selection: which prediction plane a Stay-Away cell runs.
//!
//! Fleets and cell plans hold [`stayaway_core::PredictorKind`] directly
//! (DESIGN.md §15); a fleet's list of them is one axis of its cell matrix,
//! like its [`crate::PolicySpec`]s, so one fleet can run a mixed-predictor
//! population and rank its planes ([`crate::PredictorRollup`]). What the
//! fleet adds is here: the label of a cell that runs no predictor, and the
//! CLI list parser.

use crate::FleetError;
use stayaway_core::PredictorKind;

/// The marker non-predictive (baseline) cells report in place of a
/// predictor name.
pub const NONE: &str = "-";

/// Parses a comma-separated list of predictor tokens (see
/// [`PredictorKind::parse`] for the accepted aliases).
///
/// # Errors
///
/// Returns [`FleetError::InvalidConfig`] for an empty list and
/// [`FleetError::Core`] for an unknown token.
pub fn parse_list(tokens: &str) -> Result<Vec<PredictorKind>, FleetError> {
    crate::parse_comma_list(tokens, "predictor", |t| {
        PredictorKind::parse(t).map_err(FleetError::Core)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_list_accepts_canonical_names_and_aliases() {
        let names: Vec<&str> = PredictorKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(parse_list(&names.join(",")).unwrap(), PredictorKind::ALL);
        assert_eq!(
            parse_list("trajectory,alioth").unwrap(),
            [PredictorKind::Kde, PredictorKind::Denoise]
        );
        assert!(parse_list("bogus").is_err());
    }

    #[test]
    fn parse_list_splits_on_commas() {
        let kinds = parse_list("kde, xapp,last-tick").unwrap();
        assert_eq!(kinds.len(), 3);
        assert_eq!(kinds[0].name(), "kde");
        assert_eq!(kinds[2].name(), "last-tick");
        assert!(parse_list("").is_err());
        assert!(parse_list("kde,bogus").is_err());
    }

    #[test]
    fn unknown_tokens_name_the_expected_planes_once() {
        assert_eq!(
            parse_list("warp-core").unwrap_err().to_string(),
            "invalid configuration: unknown predictor 'warp-core' \
             (expected kde|xapp|denoise|last-tick)"
        );
    }
}
