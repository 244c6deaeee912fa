// Package workload is the deterministic, I/O-free half of the repo
// benchmark: it turns a corpus text file and a seed into request scripts
// (keyword-set harvest, request order, Zipf draws, documents to write),
// runs open- and closed-loop schedules against an injected clock, and does
// the percentile arithmetic the reports are built from.
//
// Nothing here imports the system under test. The end-to-end driver
// (bench/driver) feeds these scripts to the real `phrasemine serve` binary
// over HTTP; the layer ladder (bench/ladder) replays the same scripts
// in-process. Keeping the generation here is what makes "same seed, same
// inputs" checkable in a unit test that spawns nothing.
package workload
