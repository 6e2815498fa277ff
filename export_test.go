package rbq

import "rbq/internal/store"

// WithFS returns opts with the store's filesystem replaced: the seam the
// in-package fault-injection tests set directly, for the external test
// package (which can also import internal/server).
func (o OpenOptions) WithFS(fs store.FS) OpenOptions {
	o.fs = fs
	return o
}
