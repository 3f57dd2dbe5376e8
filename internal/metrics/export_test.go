package metrics

// Pow2Bounds exposes the power-of-two bucket bounds to the external tests.
var Pow2Bounds = pow2Bounds
