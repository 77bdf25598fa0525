//! Stage 2 — Map: raw vectors become labelled 2-D states (§3.2.1, §4).
//!
//! Owns the [`MappingEngine`] (normalisation, representative-sample dedup,
//! incremental MDS embedding) and the labelled [`StateMap`]. Later stages
//! consult this stage read-only: prediction tests candidate points against
//! violation-ranges, action estimates whether a resume would land in one.

use super::sense::Sensed;
use crate::config::ControllerConfig;
use crate::mapping::MappingEngine;
use crate::obs::MappingMetrics;
use crate::CoreError;
use stayaway_statespace::{ExecutionMode, Point2, StateKind, StateMap, Template};
use stayaway_telemetry::HostSpec;

/// Where one observation landed in the state map.
#[derive(Debug, Clone, Copy)]
pub struct MappedState {
    /// Representative state index.
    pub rep: usize,
    /// The representative's (post-refresh) 2-D position.
    pub point: Point2,
    /// True when this observation created a new representative.
    pub is_new: bool,
}

/// The mapping stage: dedup + incremental MDS + state-map upkeep.
#[derive(Debug)]
pub struct MapStage {
    mapping: MappingEngine,
    map: StateMap,
    violation_range_enabled: bool,
    /// Dimensionality of the normalised vectors (`2 × |metrics|`), needed
    /// to construct templates.
    dim: usize,
}

impl MapStage {
    /// Creates the stage from the controller configuration and host spec.
    ///
    /// # Errors
    ///
    /// Propagates [`MappingEngine`] construction failures.
    pub fn new(config: &ControllerConfig, spec: &HostSpec) -> Result<Self, CoreError> {
        let mapping = MappingEngine::new(
            &config.metrics,
            spec,
            config.dedup_epsilon,
            config.smacof_iterations,
            config.max_states,
        )?;
        Ok(MapStage {
            mapping,
            map: StateMap::new(),
            violation_range_enabled: config.violation_range_enabled,
            dim: config.metrics.len() * 2,
        })
    }

    /// Attaches observability instruments to the mapping engine
    /// (builder-style; decision-inert).
    pub fn with_metrics(mut self, metrics: MappingMetrics) -> Self {
        self.mapping = self.mapping.with_metrics(metrics);
        self
    }

    /// Maps one sensed period: dedup/embed the raw measurement vector and
    /// record the visit at the representative's position. A new
    /// representative that re-laid the embedding refreshes every position;
    /// one that was placed into the map as it stands changes only the
    /// coordinate scale.
    ///
    /// # Errors
    ///
    /// Propagates mapping-pipeline failures.
    pub fn ingest(&mut self, sensed: &Sensed) -> Result<MappedState, CoreError> {
        let mapped = self.mapping.observe(&sensed.raw)?;
        self.map
            .visit(mapped.rep, mapped.point, sensed.mode, sensed.tick)?;
        if mapped.relaid {
            self.refresh_positions()?;
        } else if mapped.is_new {
            self.refresh_scale()?;
        }
        Ok(MappedState {
            rep: mapped.rep,
            point: mapped.point,
            is_new: mapped.is_new,
        })
    }

    /// Synchronises the state map's positions and violation-range scale
    /// with the current embedding.
    ///
    /// # Errors
    ///
    /// Propagates embedding lookups.
    pub fn refresh_positions(&mut self) -> Result<(), CoreError> {
        for rep in 0..self.mapping.repr_count().min(self.map.len()) {
            self.map.set_position(rep, self.mapping.point_of(rep)?)?;
        }
        self.refresh_scale()
    }

    /// Synchronises the violation-range scale with the current embedding.
    fn refresh_scale(&mut self) -> Result<(), CoreError> {
        // With violation-ranges disabled (ablation), a zero coordinate
        // scale collapses every range to exact-overlap matching.
        let scale = if self.violation_range_enabled {
            self.mapping.median_range()
        } else {
            0.0
        };
        self.map.set_coordinate_scale(scale)?;
        Ok(())
    }

    /// Labels representative `rep` a violation-state.
    ///
    /// # Errors
    ///
    /// Propagates out-of-range indices.
    pub fn mark_violation(&mut self, rep: usize) -> Result<(), CoreError> {
        self.map.mark_violation(rep)?;
        Ok(())
    }

    /// True when representative `rep` is a known violation-state.
    pub fn is_violation_state(&self, rep: usize) -> bool {
        self.map
            .entry(rep)
            .map(|e| e.kind() == StateKind::Violation)
            .unwrap_or(false)
    }

    /// True when `point` falls inside any violation-range.
    pub fn in_violation_range(&self, point: Point2) -> bool {
        self.map.in_violation_range(point)
    }

    /// The learned state map.
    pub fn state_map(&self) -> &StateMap {
        &self.map
    }

    /// Number of representative states.
    pub fn repr_count(&self) -> usize {
        self.mapping.repr_count()
    }

    /// The 2-D position of representative `rep`.
    ///
    /// # Errors
    ///
    /// Propagates embedding lookups for out-of-range representatives.
    pub fn point_of(&self, rep: usize) -> Result<Point2, CoreError> {
        self.mapping.point_of(rep)
    }

    /// Normalises a raw measurement vector into `[0, 1]` per metric.
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches.
    pub fn normalize(&self, raw: &[f64]) -> Result<Vec<f64>, CoreError> {
        self.mapping.normalize(raw)
    }

    /// [`MapStage::normalize`] into `out` (overwritten).
    ///
    /// # Errors
    ///
    /// Propagates dimension mismatches.
    pub fn normalize_into(&self, raw: &[f64], out: &mut Vec<f64>) -> Result<(), CoreError> {
        self.mapping.normalize_into(raw, out)
    }

    /// Interpolated 2-D position for a normalised vector, with the
    /// distance to the nearest representative.
    pub fn approximate_point(&self, normalized: &[f64]) -> Option<(Point2, f64)> {
        self.mapping.approximate_point(normalized)
    }

    /// Nearest representative to a normalised vector.
    pub fn nearest(&self, normalized: &[f64]) -> Option<(usize, f64)> {
        self.mapping.nearest(normalized)
    }

    /// Exports the learned states as a reusable template (§6).
    ///
    /// # Errors
    ///
    /// Propagates template-construction failures.
    pub fn export_template(&self, sensitive_app: &str) -> Result<Template, CoreError> {
        let mut t = Template::new(sensitive_app, self.dim)?;
        for rep in 0..self.mapping.repr_count() {
            t.push(
                self.mapping.normalized_vector(rep).to_vec(),
                self.is_violation_state(rep),
            )?;
        }
        Ok(t)
    }

    /// Seeds the stage with a template captured in a previous run: its
    /// states become the initial state map, violation labels included (§6).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Template`] on dimension mismatch and propagates
    /// embedding failures.
    pub fn import_template(&mut self, template: &Template) -> Result<(), CoreError> {
        for state in template.iter() {
            let mapped = self.mapping.import_state(&state.vector)?;
            // Ensure a map entry exists for the representative.
            if mapped.rep >= self.map.len() {
                self.map
                    .visit(mapped.rep, mapped.point, ExecutionMode::CoLocated, 0)?;
            }
            if state.violation {
                self.map.mark_violation(mapped.rep)?;
            }
        }
        // Any of the inserts may have re-laid the map; one sweep over the
        // positions at the end covers them all.
        self.refresh_positions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stayaway_telemetry::ResourceKind;

    #[test]
    fn template_import_honours_the_soft_state_cap() {
        let config = ControllerConfig {
            metrics: vec![ResourceKind::Cpu],
            dedup_epsilon: 0.0, // exact-duplicate merging only
            max_states: 10,
            ..ControllerConfig::default()
        };
        let mut stage = MapStage::new(&config, &HostSpec::default()).unwrap();
        // 30 distinct states; only the last — past the cap — violated.
        let mut template = Template::new("svc", 2).unwrap();
        for i in 0..30 {
            let t = i as f64 / 30.0;
            template.push(vec![t, 1.0 - t * t], i == 29).unwrap();
        }
        stage.import_template(&template).unwrap();

        assert_eq!(stage.repr_count(), config.max_states);
        assert_eq!(stage.state_map().len(), config.max_states);
        assert_eq!(stage.mapping.soft_capped(), 20);
        // The absorbed state's violation label landed on the
        // representative that absorbed it.
        let last = template.iter().last().unwrap();
        let (rep, _) = stage.nearest(&last.vector).unwrap();
        assert!(stage.is_violation_state(rep));
    }
}
