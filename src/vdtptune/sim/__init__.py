"""The vehicular channel, the VDTP session kernels and their scenarios."""
