package ckpt

import "path/filepath"

// Encode exposes the payload encoder to the external tests.
var Encode = encode

// LatestPath returns the highest-step periodic checkpoint in dir, or ""
// when dir contains none: the checkpoint ResumeLatestValid tries first.
func LatestPath(dir string) (string, error) {
	steps, err := periodicSteps(dir)
	if err != nil || len(steps) == 0 {
		return "", err
	}
	return filepath.Join(dir, FileName(steps[0])), nil
}
