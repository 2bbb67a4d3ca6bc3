//! A well-known name reads in a process where nothing has been interned
//! yet: its text is a static table, not a slot `Id::new` fills. This file
//! holds one test so that the process is fresh when it runs.

use calyx_core::ir::Id;

#[test]
fn a_well_known_const_reads_before_any_interning() {
    assert_eq!(Id::DONE.as_str(), "done");
    assert_eq!(Id::new("done"), Id::DONE);
    let fresh = Id::new("first_interned_name");
    assert_eq!(fresh.as_str(), "first_interned_name");
    assert_ne!(fresh, Id::DONE);
    // Ordered by text, across the two tables.
    assert!(Id::DONE < fresh && fresh < Id::GO);
}
