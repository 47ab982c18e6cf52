package cure

// Clock skew is handled as in Wren; see package core. // want
