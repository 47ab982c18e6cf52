package cure
