package profile

import (
	"bytes"
	"fmt"

	"dnastore/internal/durable"
)

// profileFrame names the serialized profile inside its container.
const profileFrame = "profile.json"

// WriteFile atomically writes the profile to path as a durable container
// with default Reed–Solomon parity — a calibration run is expensive enough
// that its artifact deserves checksums.
func (p *ErrorProfile) WriteFile(path string) error {
	return durable.WriteContainerFile(path, durable.KindProfile,
		durable.Options{Parity: durable.DefaultParity},
		func(w *durable.Writer) error {
			var buf bytes.Buffer
			if err := p.WriteJSON(&buf); err != nil {
				return err
			}
			return w.WriteFrame(profileFrame, buf.Bytes())
		})
}

// ReadFile reads a profile container from path, verifying checksums and
// applying parity repair. A file without the container magic fails with
// durable.ErrNotContainer.
func ReadFile(path string) (*ErrorProfile, error) {
	frames, err := durable.ReadContainerFile(path, durable.KindProfile)
	if err != nil {
		return nil, err
	}
	for _, fr := range frames {
		if fr.Name == profileFrame {
			return ReadJSON(bytes.NewReader(fr.Payload))
		}
	}
	return nil, fmt.Errorf("profile: %s has no %q section", path, profileFrame)
}
