package fixed

// Vec is a slice of fixed-point words sharing one format.
type Vec []Word
