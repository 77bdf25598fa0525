//! The cross-host template registry.
//!
//! Cells publish the [`Template`]s they learn, keyed by sensitive-workload
//! name; newly started cells import the best match and begin life already
//! knowing the violation-states of their workload (§6 at fleet scale).
//!
//! **Locking discipline.** The registry is shared as
//! `Arc<TemplateRegistry>` with one internal [`RwLock`]: lookups take the
//! read lock, publishes the write lock, and no lock is ever held across a
//! cell run. **Conflict resolution is order-independent**: of two
//! templates for the same key, the one with more violation-states wins
//! (more states, then lower source cell, as tie-breakers), so the final
//! registry contents do not depend on which worker published first.
//! **A poisoned lock is recovered**, not propagated: fleet workers share
//! the registry, and a cell that panicked mid-publish must not take every
//! other cell down with it. The map is never left half-written by a
//! panic — each publish is one `insert` or one assignment — so the guard a
//! poisoned lock hands back holds a consistent map.

use stayaway_statespace::Template;
use std::collections::BTreeMap;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// One registered template plus its provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct RegistryEntry {
    /// Sensitive-workload key (equals `template.sensitive_app()`).
    pub(crate) sensitive: String,
    /// The learned template.
    pub template: Template,
    /// Index of the cell that captured it.
    pub source_cell: usize,
}

impl RegistryEntry {
    /// The order-independent quality ranking: more violation knowledge
    /// first, richer maps second, earlier cells as the final tie-break.
    fn rank(&self) -> (usize, usize, std::cmp::Reverse<usize>) {
        (
            self.template.violation_count(),
            self.template.len(),
            std::cmp::Reverse(self.source_cell),
        )
    }
}

/// A concurrent map from sensitive-workload name to the best known
/// [`Template`] for it.
#[derive(Debug, Default)]
pub struct TemplateRegistry {
    inner: RwLock<BTreeMap<String, RegistryEntry>>,
}

impl TemplateRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        TemplateRegistry::default()
    }

    /// The map for reading, recovering a poisoned lock.
    fn read(&self) -> RwLockReadGuard<'_, BTreeMap<String, RegistryEntry>> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The map for writing, recovering a poisoned lock.
    fn write(&self) -> RwLockWriteGuard<'_, BTreeMap<String, RegistryEntry>> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of registered sensitive workloads.
    pub(crate) fn len(&self) -> usize {
        self.read().len()
    }

    /// True when nothing has been published yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Publishes a template under its sensitive-workload key. Empty
    /// templates are ignored (a cell that learned nothing has nothing to
    /// teach). Returns true when the entry became (or stayed, if
    /// identical) the registered best.
    pub fn publish(&self, template: Template, source_cell: usize) -> bool {
        if template.is_empty() {
            return false;
        }
        let entry = RegistryEntry {
            sensitive: template.sensitive_app().to_string(),
            template,
            source_cell,
        };
        let mut map = self.write();
        match map.get_mut(&entry.sensitive) {
            Some(existing) if existing.rank() >= entry.rank() => false,
            Some(existing) => {
                *existing = entry;
                true
            }
            None => {
                map.insert(entry.sensitive.clone(), entry);
                true
            }
        }
    }

    /// True when a template is registered for this sensitive workload.
    pub(crate) fn contains(&self, sensitive: &str) -> bool {
        self.read().contains_key(sensitive)
    }

    /// The best registered template for a sensitive workload, if any.
    pub(crate) fn lookup(&self, sensitive: &str) -> Option<RegistryEntry> {
        self.read().get(sensitive).cloned()
    }

    /// Every registered entry, ordered by sensitive-workload key.
    pub fn snapshot(&self) -> Vec<RegistryEntry> {
        self.read().values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn template(app: &str, violations: usize, safes: usize) -> Template {
        let mut t = Template::new(app, 2).unwrap();
        for i in 0..violations {
            t.push(vec![0.9, 0.1 * (i % 10) as f64], true).unwrap();
        }
        for i in 0..safes {
            t.push(vec![0.1, 0.1 * (i % 10) as f64], false).unwrap();
        }
        t
    }

    #[test]
    fn publish_and_lookup_round_trip() {
        let r = TemplateRegistry::new();
        assert!(r.is_empty());
        assert!(r.publish(template("vlc", 2, 3), 0));
        assert_eq!(r.len(), 1);
        let entry = r.lookup("vlc").unwrap();
        assert_eq!(entry.source_cell, 0);
        assert_eq!(entry.template.violation_count(), 2);
        assert!(r.lookup("webservice-mix").is_none());
    }

    #[test]
    fn empty_templates_are_not_registered() {
        let r = TemplateRegistry::new();
        assert!(!r.publish(template("vlc", 0, 0), 0));
        assert!(r.is_empty());
    }

    #[test]
    fn conflict_resolution_is_order_independent() {
        let better = template("vlc", 5, 5);
        let worse = template("vlc", 2, 8);
        // Publish in both orders: the same winner must emerge.
        let a = TemplateRegistry::new();
        a.publish(worse.clone(), 7);
        a.publish(better.clone(), 3);
        let b = TemplateRegistry::new();
        b.publish(better.clone(), 3);
        b.publish(worse.clone(), 7);
        assert_eq!(a.lookup("vlc"), b.lookup("vlc"));
        assert_eq!(a.lookup("vlc").unwrap().source_cell, 3);
        // Equal quality: the lower cell index wins, in both orders.
        let c = TemplateRegistry::new();
        c.publish(better.clone(), 9);
        c.publish(better.clone(), 4);
        let d = TemplateRegistry::new();
        d.publish(better.clone(), 4);
        d.publish(better, 9);
        assert_eq!(c.lookup("vlc").unwrap().source_cell, 4);
        assert_eq!(d.lookup("vlc").unwrap().source_cell, 4);
    }

    #[test]
    fn keys_are_isolated() {
        let r = TemplateRegistry::new();
        r.publish(template("vlc", 1, 1), 0);
        r.publish(template("webservice-mix", 3, 1), 1);
        assert_eq!(r.len(), 2);
        assert_eq!(r.lookup("vlc").unwrap().template.violation_count(), 1);
        let snap = r.snapshot();
        // Snapshot is key-ordered.
        assert_eq!(snap[0].sensitive, "vlc");
        assert_eq!(snap[1].sensitive, "webservice-mix");
    }

    #[test]
    fn a_cell_that_panics_holding_the_write_lock_does_not_stop_the_others() {
        let r = std::sync::Arc::new(TemplateRegistry::new());
        r.publish(template("vlc", 1, 1), 0);
        let held = std::sync::Arc::clone(&r);
        let writer = std::thread::spawn(move || {
            let _guard = held.inner.write().unwrap();
            panic!("cell died mid-publish");
        });
        assert!(writer.join().is_err());
        assert!(r.inner.is_poisoned());
        // Every entry point still works, on the map as it was.
        assert_eq!(r.len(), 1);
        assert_eq!(r.lookup("vlc").unwrap().source_cell, 0);
        assert!(r.contains("vlc"));
        assert!(r.publish(template("webservice-mix", 2, 1), 1));
        assert_eq!(r.len(), 2);
        assert_eq!(r.snapshot().len(), 2);
    }
}
