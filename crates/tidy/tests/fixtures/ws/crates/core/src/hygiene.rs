//! Fixture: allowlist hygiene — unknown check, missing reason, stale.

// tidy-allow(no-such-check): typo in the check name
// tidy-allow(deps)
// tidy-allow(module-size): silences nothing in this file
pub fn nothing() {}
