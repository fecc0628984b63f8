"""Exact BMW algebras of simply laced type via Lawrence-Krammer representations."""
