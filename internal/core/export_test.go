package core

import "imrdmd/internal/svd"

// Level1Factors exposes the live level-1 factors to the external tests
// (read-only, valid until the next update).
func (inc *Incremental) Level1Factors() *svd.Result { return inc.isvd.ResultView() }
