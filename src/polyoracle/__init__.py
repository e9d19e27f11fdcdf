"""polyoracle: constant-degree polynomial formulations for local-subset
problems, oracle cost accounting, arithmetic-circuit verification, and exact
counting reductions for the binary permanent and set cover.

Import the modules, e.g. ``from polyoracle import localsubset as ls``; the
package itself re-exports nothing."""
