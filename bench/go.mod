// The benchmark is a module of its own, nested in the repository's: it
// is built from this directory and takes the system under test from the
// checkout around it.
module sketchengine/bench

go 1.24

require sketchengine v0.0.0

replace sketchengine => ../
