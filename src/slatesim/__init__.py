"""Simulated slate recommendation: adversarially trained user models and cascading Q policies."""
