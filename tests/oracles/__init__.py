"""Reference implementations the production executor is tested against."""
