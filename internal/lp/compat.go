package lp

// Core names a simplex basis-inverse engine. The sparse revised core is the
// only one.
//
// Deprecated: nothing reads a Core; it remains so existing callers compile
// and will be removed.
type Core int

// CoreSparse is the sparse revised core.
//
// Deprecated: see Core.
const CoreSparse Core = 0

// PivotRule names a primal pricing rule. Pricing is always Dantzig's rule,
// with Bland's rule only as the internal anti-cycling fallback.
//
// Deprecated: nothing reads a PivotRule; it remains so existing callers
// compile and will be removed.
type PivotRule int

// PivotDantzig is Dantzig's rule.
//
// Deprecated: see PivotRule.
const PivotDantzig PivotRule = 0
