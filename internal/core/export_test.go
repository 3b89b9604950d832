package core

// Reference runs a diagnosis on the interpreted reference engine instead of
// the compiled one. It is the other side of every differential test.
var Reference Option = func(s *settings) { s.engine = systemEngine{} }
