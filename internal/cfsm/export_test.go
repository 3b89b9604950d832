package cfsm

// ReadSystemDoc runs the one-pass reader alone, without the encoding/json
// fallback: ok reports whether it accepted the document, and sys and err are
// what validating the accepted document gives.
func ReadSystemDoc(data []byte, strict bool) (sys *System, ok bool, err error) {
	doc, ok := readSystem(data, strict, false)
	if !ok {
		return nil, false, nil
	}
	sys, err = doc.build()
	return sys, true, err
}
